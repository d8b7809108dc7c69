package match

import (
	"sort"

	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// twig.go implements the holistic twig-join matcher (TwigStack family,
// after Bruno/Koudas/Srivastava): one posting stream per pattern node,
// driven directly off the tag/value B+tree cursors, and one stack per
// pattern node whose entries encode the partial root-to-leaf paths
// discovered so far. Per-node candidate lists are never materialized —
// the streams are consumed in a single coordinated document-order pass,
// with three skip mechanisms feeding TagCursor.Seek:
//
//   - document alignment: all streams fast-forward to the next document
//     every stream can inhabit (whole posting blocks of skipped
//     documents stay undecoded);
//   - the classic getNext skip: an internal node's postings that end
//     before the latest child-stream head cannot contain every branch
//     and are dropped;
//   - the dead-start skip: when a node's parent stack is empty, its
//     postings at or before the parent stream's head start can never
//     acquire an ancestor and are seeked over.
//
// Phase one emits root-to-leaf path solutions at each leaf push into
// one flat arena per leaf; phase two sorts each arena root-first and
// merge-joins the arenas, leaf by leaf in pattern pre-order, on their
// shared ancestor prefix into full witness rows. The join keeps the
// accumulated rows' order and appends columns that follow every bound
// column in pre-order, so the rows come out lexicographically ordered by
// pre-order node IDs without a sort; documents ascend — the exact
// binding sequence of the binary cascade, which is the package's hard
// equivalence invariant. Arenas, merge buffers and the delivered binding
// are reused from document to document: steady-state matching does not
// allocate.

// infStart is the sentinel start for a stream exhausted within the
// current document (any real start is below it).
const infStart = uint64(1) << 40

// stackEntry is one partial-path element: a posting plus the index of
// the parent stack's top at push time. Entries at or below ptr on the
// parent stack are exactly the ancestors of this posting that were
// live when it was pushed — the chain the path enumeration follows.
type stackEntry struct {
	post storage.Posting
	ptr  int
}

// twigStream is one pattern node's posting source: a tag-index cursor
// (value-index postings for content-pinned nodes are served from a
// slice; both look the same to the matcher), with residual predicates
// applied on pull.
type twigStream struct {
	cur   *storage.TagCursor // nil when posts is the source
	posts []storage.Posting  // value-index (or test) postings
	pos   int
	rest  []pattern.Predicate // predicates needing the node record
	db    storage.Reader
	stats *DBStats

	head        storage.Posting
	ok          bool
	err         error
	prevDecoded int
}

// advance pulls the next posting that passes the residual predicates
// into head; ok goes false at end of stream.
func (s *twigStream) advance() {
	for {
		var p storage.Posting
		if s.cur != nil {
			var ok bool
			p, ok = s.cur.Next()
			d := s.cur.PostingsDecoded()
			s.stats.PostingsScanned += d - s.prevDecoded
			s.prevDecoded = d
			if !ok {
				s.ok = false
				if err := s.cur.Err(); err != nil && s.err == nil {
					s.err = err
				}
				return
			}
		} else {
			if s.pos >= len(s.posts) {
				s.ok = false
				return
			}
			p = s.posts[s.pos]
			s.pos++
		}
		s.stats.Candidates++
		if len(s.rest) > 0 {
			rec, err := s.db.GetNodeAt(p.RID)
			if err != nil {
				s.err = err
				s.ok = false
				return
			}
			s.stats.RecordFilterFetches++
			if !predsMatch(s.rest, recFields{rec}) {
				continue
			}
		}
		s.head = p
		s.ok = true
		return
	}
}

// seekTo fast-forwards the stream so head is the first posting at or
// after (doc, start); a head already there is kept (never rewinds).
func (s *twigStream) seekTo(doc xmltree.DocID, start uint32) {
	if !s.ok {
		return
	}
	iv := s.head.Interval
	if iv.Doc > doc || (iv.Doc == doc && iv.Start >= start) {
		return
	}
	if s.cur != nil {
		s.cur.Seek(doc, start)
	} else {
		s.pos += sort.Search(len(s.posts)-s.pos, func(i int) bool {
			iv := s.posts[s.pos+i].Interval
			return iv.Doc > doc || (iv.Doc == doc && iv.Start >= start)
		})
	}
	s.advance()
}

func (s *twigStream) close() {
	if s.cur != nil {
		s.cur.Close()
		s.cur = nil
	}
}

// twigMatcher streams a pattern's witnesses with the holistic twig
// join. It holds a snapshot pin and open cursors until Close.
type twigMatcher struct {
	db      storage.Reader
	release func()
	order   []*pattern.Node
	parentI []int   // parent's pre-order index (-1 for the root)
	childI  [][]int // children's pre-order indexes
	leaves  []int   // leaf pre-order indexes, in pre-order
	leafOf  []int   // per pattern node: its index in leaves (internal nodes unused)
	pathOf  [][]int // per leaves[i]: pre-order indexes root → leaf
	shared  []int   // per leaves[i]: leading path nodes an earlier leaf's path binds

	streams []*twigStream
	stacks  [][]stackEntry
	stats   *DBStats
	err     error
	done    bool

	// Per-document state, reset (not reallocated) by matchDoc.
	paths  []rowSet          // per leaves[i]: path solutions, one root → leaf row each
	sol    []storage.Posting // the path under enumeration
	merged [2]rowSet         // full-width merge rows, ping-pong between leaves
	out    witnesses         // the document's witnesses, aliasing a merge buffer
}

// openTwig builds the streams and primes them. The caller has checked
// TwigApplicable.
func openTwig(db storage.Reader, pt *pattern.Tree) (*twigMatcher, error) {
	db, release := storage.Pin(db)
	order := preorder(pt.Root)
	stats := &DBStats{Matcher: MatcherTwig.String()}
	colOf := make(map[string]int, len(order))
	for i, pn := range order {
		colOf[pn.Label] = i
	}
	m := &twigMatcher{
		db:      db,
		release: release,
		order:   order,
		parentI: make([]int, len(order)),
		childI:  make([][]int, len(order)),
		leafOf:  make([]int, len(order)),
		streams: make([]*twigStream, len(order)),
		stacks:  make([][]stackEntry, len(order)),
		stats:   stats,
		sol:     make([]storage.Posting, len(order)),
		merged:  [2]rowSet{{width: len(order)}, {width: len(order)}},
		out:     witnesses{labels: pt.Labels(), rows: rowSet{width: len(order)}},
	}
	for i, pn := range order {
		if pn.Parent == nil {
			m.parentI[i] = -1
		} else {
			p := colOf[pn.Parent.Label]
			m.parentI[i] = p
			m.childI[p] = append(m.childI[p], i)
		}
		// The streams are consumed together in document order; JoinOrder
		// reports the pattern's pre-order as the (only) order.
		stats.JoinOrder = append(stats.JoinOrder, pn.Label)
	}
	for i := range order {
		if len(m.childI[i]) == 0 {
			var path []int
			for q := i; q >= 0; q = m.parentI[q] {
				path = append(path, q)
			}
			for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
				path[l], path[r] = path[r], path[l]
			}
			// Leaves come in pre-order, so the columns bound before this
			// one are exactly those up to the previous leaf.
			shared := 0
			for len(m.leaves) > 0 && path[shared] <= m.leaves[len(m.leaves)-1] {
				shared++
			}
			m.leafOf[i] = len(m.leaves)
			m.leaves = append(m.leaves, i)
			m.pathOf = append(m.pathOf, path)
			m.shared = append(m.shared, shared)
			m.paths = append(m.paths, rowSet{width: len(path)})
		}
	}

	for i, pn := range order {
		tag := pn.TagConstraint()
		s := &twigStream{db: db, stats: stats}
		var covered []pattern.Predicate
		if ceq := contentEqOf(pn); ceq != nil && db.HasValueIndex() {
			posts, err := db.ValuePostings(tag, ceq.Value)
			if err != nil {
				m.closeStreams()
				release()
				return nil, err
			}
			s.posts = posts
			stats.PostingsScanned += len(posts)
			covered = []pattern.Predicate{pattern.TagEq{Tag: tag}, *ceq}
		} else {
			s.cur = db.OpenTagCursor(tag)
			covered = []pattern.Predicate{pattern.TagEq{Tag: tag}}
		}
		s.rest = remaining(pn.Preds, covered)
		m.streams[i] = s
		s.advance()
		if s.err != nil {
			err := s.err
			m.closeStreams()
			release()
			return nil, err
		}
	}
	return m, nil
}

func (m *twigMatcher) closeStreams() {
	for _, s := range m.streams {
		if s != nil {
			s.close()
		}
	}
}

// Next returns the next witness binding in the global output order; the
// binding is valid until the following Next.
func (m *twigMatcher) Next() (DBBinding, bool) {
	for {
		if b, ok := m.out.next(); ok {
			m.stats.Witnesses++
			return b, true
		}
		if m.done || m.err != nil {
			return nil, false
		}
		m.nextDoc()
	}
}

func (m *twigMatcher) Stats() *DBStats { return m.stats }

func (m *twigMatcher) Err() error { return m.err }

// Close releases the matcher's cursors, snapshot pin and per-document
// buffers; Next reports ok=false from then on. Idempotent.
func (m *twigMatcher) Close() error {
	m.closeStreams()
	if m.release != nil {
		m.release()
		m.release = nil
	}
	m.done = true
	m.paths, m.merged = nil, [2]rowSet{}
	m.out.drop()
	return m.err
}

// nextDoc aligns every stream on the next document all of them inhabit
// and runs the per-document twig join; streams left inside the document
// afterwards are seeked past it. Alignment is where entire documents
// are skipped: a stream whose head is behind the frontier seeks
// directly to it, jumping posting blocks without decoding.
func (m *twigMatcher) nextDoc() {
	for {
		var d xmltree.DocID
		for _, s := range m.streams {
			if !s.ok {
				if s.err != nil && m.err == nil {
					m.err = s.err
				}
				m.done = true
				return
			}
			if s.head.Interval.Doc > d {
				d = s.head.Interval.Doc
			}
		}
		aligned := true
		for _, s := range m.streams {
			if s.head.Interval.Doc < d {
				s.seekTo(d, 0)
				aligned = false
			}
		}
		if !aligned {
			continue
		}
		m.matchDoc(d)
		for _, s := range m.streams {
			if s.ok && s.head.Interval.Doc == d {
				s.seekTo(d+1, 0)
			}
		}
		return
	}
}

// inDoc reports whether node q's stream head is inside document d.
func (m *twigMatcher) inDoc(q int, d xmltree.DocID) bool {
	s := m.streams[q]
	return s.ok && s.head.Interval.Doc == d
}

// startOrInf is node q's stream head start, or infStart when the stream
// is exhausted within document d.
func (m *twigMatcher) startOrInf(q int, d xmltree.DocID) uint64 {
	if !m.inDoc(q, d) {
		return infStart
	}
	return uint64(m.streams[q].head.Interval.Start)
}

// clean pops stack entries that end before start — they cannot be
// ancestors of any posting from here on.
func (m *twigMatcher) clean(i int, start uint32) {
	s := m.stacks[i]
	for len(s) > 0 && s[len(s)-1].post.Interval.End < start {
		s = s[:len(s)-1]
	}
	m.stacks[i] = s
}

// getNext returns the pattern node whose stream head should be acted on
// next: a node all of whose child subtrees can still extend it, with
// the minimal start among them (TwigStack's getNext). A child subtree
// with nothing left in the document reads as infStart: q is drained —
// no later q can contain that branch — while the other branches go on
// completing path solutions for the ancestors already stacked. Only
// when every branch is finished does an exhausted node surface, which
// ends the document loop.
func (m *twigMatcher) getNext(q int, d xmltree.DocID) int {
	if len(m.childI[q]) == 0 {
		return q
	}
	nmin := -1
	var minStart, maxStart uint64
	for _, qi := range m.childI[q] {
		ni := m.getNext(qi, d)
		if ni != qi && m.inDoc(ni, d) {
			return ni
		}
		// Either qi itself is next in its subtree, or the subtree is
		// finished — and then getNext(qi) drained qi's stream as well.
		st := m.startOrInf(qi, d)
		if nmin < 0 || st < minStart {
			nmin, minStart = qi, st
		}
		if st > maxStart {
			maxStart = st
		}
	}
	// Drop q's postings that end before the latest child head: they
	// cannot contain a node from every branch. With a branch exhausted
	// in this document no posting can, so drain q past the document.
	if maxStart == infStart {
		if m.inDoc(q, d) {
			m.streams[q].seekTo(d+1, 0)
		}
	} else {
		for m.inDoc(q, d) && uint64(m.streams[q].head.Interval.End) < maxStart {
			m.streams[q].advance()
		}
	}
	if m.startOrInf(q, d) < minStart {
		return q
	}
	return nmin
}

// matchDoc runs the two twig phases over one document: the stack-driven
// stream pass emitting path solutions, then the merge of per-leaf path
// sets into full rows in the binary cascade's output order.
func (m *twigMatcher) matchDoc(d xmltree.DocID) {
	m.out.drop()
	for i := range m.stacks {
		m.stacks[i] = m.stacks[i][:0]
	}
	for i := range m.paths {
		m.paths[i].reset()
	}

	for m.err == nil {
		// End of document: every leaf stream exhausted means no further
		// path solutions can be emitted.
		allDone := true
		for _, l := range m.leaves {
			if m.inDoc(l, d) {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		q := m.getNext(0, d)
		if !m.inDoc(q, d) {
			break // the whole relevant frontier is exhausted
		}
		hp := m.streams[q].head
		p := m.parentI[q]
		if p >= 0 {
			m.clean(p, hp.Interval.Start)
		}
		if p < 0 || len(m.stacks[p]) > 0 {
			m.clean(q, hp.Interval.Start)
			ptr := -1
			if p >= 0 {
				ptr = len(m.stacks[p]) - 1
			}
			m.stacks[q] = append(m.stacks[q], stackEntry{post: hp, ptr: ptr})
			m.streams[q].advance()
			if len(m.childI[q]) == 0 {
				m.emitPaths(q)
				m.stacks[q] = m.stacks[q][:len(m.stacks[q])-1]
			}
		} else {
			// Dead start: no live ancestor on the parent stack, and any
			// future one begins at or after the parent head's start — a
			// strict descendant must start strictly later than that.
			if m.inDoc(p, d) {
				m.streams[q].seekTo(d, m.streams[p].head.Interval.Start+1)
			} else {
				m.streams[q].seekTo(d+1, 0)
			}
		}
	}
	if m.err != nil {
		return
	}
	m.mergeDoc()
}

// emitPaths enumerates the root-to-leaf path solutions ending at the
// just-pushed top of leaf q's stack: every chain of live ancestor
// entries (indexes at or below the recorded parent pointers) whose
// consecutive intervals satisfy the pattern edges.
func (m *twigMatcher) emitPaths(q int) {
	li := m.leafOf[q]
	top := m.stacks[q][len(m.stacks[q])-1]
	k := len(m.pathOf[li]) - 1
	m.sol[k] = top.post
	m.extendPath(li, k-1, top.ptr)
}

// extendPath binds position k of leaf li's path to each eligible entry
// of that node's stack (indexes up to maxIdx) and recurses toward the
// root; past the root the completed path goes into the leaf's arena.
func (m *twigMatcher) extendPath(li, k, maxIdx int) {
	path := m.pathOf[li]
	if k < 0 {
		m.paths[li].posts = append(m.paths[li].posts, m.sol[:len(path)]...)
		m.stats.IntermediateBindings++
		return
	}
	st := m.stacks[path[k]]
	axis := m.order[path[k+1]].Axis
	if maxIdx >= len(st) {
		maxIdx = len(st) - 1
	}
	for i := 0; i <= maxIdx; i++ {
		if !edgeOK(st[i].post.Interval, m.sol[k+1].Interval, axis) {
			continue
		}
		m.sol[k] = st[i].post
		m.extendPath(li, k-1, st[i].ptr)
	}
}

// edgeOK checks one pattern edge between candidate intervals: strict
// containment for descendant edges (equal starts mean the same node in
// a tree, which the strictness excludes — matching the binary join's
// same-node rule), plus the level constraint for child edges.
func edgeOK(anc, desc xmltree.Interval, axis pattern.Axis) bool {
	if axis == pattern.Child {
		return anc.ParentOf(desc)
	}
	return anc.Contains(desc)
}

// mergeDoc joins the per-leaf path-solution arenas on their shared
// ancestor prefixes into full witness rows and stages them. Leaves are
// taken in pattern pre-order, starting from a single empty row; the
// shared prefix of a later leaf's path is never empty (bound nodes form
// a subtree containing the root).
//
// No sort follows the join. Each arena is sorted root-first, so the
// solutions extending one accumulated row are a contiguous group found
// by binary search, already ordered by the leaf's unshared columns. The
// accumulated rows are distinct and ordered by their bound columns, and
// the unshared columns come after all of those in pre-order — so
// emitting row by row, group by group, yields the next accumulation in
// lexicographic pre-order. The shared prefix need not be a prefix of the
// bound columns (a{b{c}, d{e, f}} joins f on columns a, d of rows
// ordered by a, b, c, d, e), which is why each row searches rather than
// the two sides advancing together.
func (m *twigMatcher) mergeDoc() {
	acc := &m.merged[0]
	acc.reset()
	acc.posts = append(acc.posts, make([]storage.Posting, acc.width)...)
	for li := range m.leaves {
		arena := &m.paths[li]
		arena.sort()
		path, shared := m.pathOf[li], m.shared[li]
		next := &m.merged[(li+1)%2]
		next.reset()
		for r, n := 0, acc.Len(); r < n; r++ {
			row := acc.row(r)
			for s := prefixSearch(arena, row, path[:shared]); s < arena.Len(); s++ {
				sol := arena.row(s)
				if comparePrefix(sol, row, path[:shared]) != 0 {
					break
				}
				at := len(next.posts)
				next.posts = append(next.posts, row...)
				for k := shared; k < len(path); k++ {
					next.posts[at+path[k]] = sol[k]
				}
			}
		}
		acc = next
		if li > 0 {
			m.stats.IntermediateBindings += acc.Len()
		}
		if acc.Len() == 0 {
			return
		}
	}
	m.out.stage(*acc)
}

// comparePrefix orders a path solution against a merge row on the
// pattern nodes in prefix: the solution's leading columns against the
// row's columns for those nodes. The document is fixed within a merge,
// so starts identify nodes.
func comparePrefix(sol, row []storage.Posting, prefix []int) int {
	for k, col := range prefix {
		a, b := sol[k].Interval.Start, row[col].Interval.Start
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

// prefixSearch returns the index of the first solution in the sorted
// arena that does not order before row on prefix.
func prefixSearch(arena *rowSet, row []storage.Posting, prefix []int) int {
	lo, hi := 0, arena.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if comparePrefix(arena.row(mid), row, prefix) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
