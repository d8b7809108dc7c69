package exec

import (
	"context"
	"sort"

	"timber/internal/par"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// opSet is an ordered, name-keyed collection of operator counters. Each
// exchange fragment builds a private set (its operators increment plain
// fields, race-free); after the worker barrier the fragment sets merge
// into the driver's set in document order, so the aggregated counts are
// identical for any parallelism.
type opSet struct {
	order []string
	m     map[string]*opCounts
}

func newOpSet() *opSet { return &opSet{m: map[string]*opCounts{}} }

func (s *opSet) get(name string) *opCounts {
	if c, ok := s.m[name]; ok {
		return c
	}
	c := &opCounts{name: name}
	s.m[name] = c
	s.order = append(s.order, name)
	return c
}

func (s *opSet) merge(o *opSet) {
	for _, name := range o.order {
		s.get(name).add(o.m[name])
	}
}

func (s *opSet) all() []*opCounts {
	out := make([]*opCounts, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.m[name])
	}
	return out
}

// fragmentMembers is the member count at which the exchange cuts a
// document's member list into fragments. It is a constant, not an
// option: the cuts depend only on the data, so every parallelism sees
// the same fragments and the same batch boundaries.
const fragmentMembers = 1024

// cutMembers splits one document's member postings (in start order)
// into fragments of at least size members. A cut falls only before a
// member that starts after the maximum end of every member before it,
// so no fragment boundary lies inside a member's subtree — recursive
// member tags stay with their outermost member — and every node below a
// fragment's members lies in the fragment's [first start, max end]
// window.
func cutMembers(members []storage.Posting, size int) [][]storage.Posting {
	var frags [][]storage.Posting
	lo := 0
	var maxEnd uint32
	for i, m := range members {
		if i-lo >= size && m.Interval.Start > maxEnd {
			frags = append(frags, members[lo:i])
			lo = i
		}
		maxEnd = max(maxEnd, m.Interval.End)
	}
	if lo < len(members) {
		frags = append(frags, members[lo:])
	}
	return frags
}

// fragment is one exchange work unit: a contiguous run of one
// document's members, and per path tag the document's candidate
// postings inside the run's [first start, max end] window — every
// posting a path step below these members can match.
type fragment struct {
	members []storage.Posting
	cands   map[string][]storage.Posting
}

// fragResult is one fragment's match output: the joined witness/value
// rows in document order, the fragment's ordering values, its stats
// contribution and its operator counters.
type fragResult struct {
	rows  []Row
	ord   map[xmltree.NodeID]string
	stats ExecStats
	ops   *opSet
}

// exchange is the parallel match phase's output: every fragment's rows,
// by reference and in document order, for the group sort to consume
// without a concatenating copy.
type exchange struct {
	// frags holds each fragment's rows; their concatenation is the
	// arrival order.
	frags [][]Row
	// rows is the total row count over frags.
	rows int
	// cands counts the pre-scanned candidate postings.
	cands int
	ord   map[xmltree.NodeID]string
	stats ExecStats
}

// runExchange parallelizes the match phase. The member posting list is
// scanned once, and so is each document's posting list of every join-,
// value- and order-path tag — sequential index passes, independent of
// the worker count. Each document's members are cut into fragments
// (cutMembers), and each fragment's pipeline — selection steps over its
// candidate windows, grouping-value projection, value-path selection
// and the merge left-outer-join — runs on a worker-pool slot. Fragment
// outputs land in pre-assigned slots in document order, so the arrival
// order is byte-identical for any parallelism: the exchange only
// reorders work, never rows.
func runExchange(db storage.Reader, spec Spec, ctx context.Context, workers, batchSize int, ops *opSet) (*exchange, error) {
	ex := &exchange{}
	scanCounts := ops.get("scan: member postings")
	members, err := scanPostings(db.OpenTagCursor(spec.MemberTag))
	if err != nil {
		return nil, err
	}
	scanCounts.out(len(members))
	if len(members) > 0 {
		scanCounts.batch()
	}
	ex.stats.IndexPostings += len(members)

	// Partition by document; the cursor returns key order, so postings
	// of one document are contiguous and documents ascend.
	var docs [][]storage.Posting
	for i := 0; i < len(members); {
		j := i
		for j < len(members) && members[j].Interval.Doc == members[i].Interval.Doc {
			j++
		}
		docs = append(docs, members[i:j])
		i = j
	}

	// One sequential scan per (document, path tag); the scans of
	// different documents and tags run side by side.
	var tags []string
	seen := map[string]bool{}
	for _, path := range []Path{spec.JoinPath, spec.ValuePath, spec.OrderPath} {
		for _, st := range path {
			if !seen[st.Tag] {
				seen[st.Tag] = true
				tags = append(tags, st.Tag)
			}
		}
	}
	lists := make([][]storage.Posting, len(docs)*len(tags))
	if err := par.Do(ctx, len(lists), workers, func(i int) error {
		doc := docs[i/len(tags)][0].Interval.Doc
		ps, err := scanPostings(db.OpenTagDocCursor(tags[i%len(tags)], doc))
		lists[i] = ps
		return err
	}); err != nil {
		return nil, err
	}
	for _, ps := range lists {
		ex.cands += len(ps)
	}

	var frags []fragment
	for d, ms := range docs {
		for _, fm := range cutMembers(ms, fragmentMembers) {
			lo := fm[0].Interval.Start
			var hi uint32
			for _, m := range fm {
				hi = max(hi, m.Interval.End)
			}
			f := fragment{members: fm, cands: make(map[string][]storage.Posting, len(tags))}
			for t, tag := range tags {
				f.cands[tag] = postingWindow(lists[d*len(tags)+t], lo, hi)
			}
			frags = append(frags, f)
		}
	}

	frs := make([]*fragResult, len(frags))
	if err := par.Do(ctx, len(frags), workers, func(i int) error {
		fr, err := runFragment(db, spec, &frags[i], batchSize)
		frs[i] = fr
		return err
	}); err != nil {
		return nil, err
	}

	ex.frags = make([][]Row, len(frs))
	for i, fr := range frs {
		ex.frags[i] = fr.rows
		ex.rows += len(fr.rows)
		ex.stats.IndexPostings += fr.stats.IndexPostings
		ex.stats.ValueLookups += fr.stats.ValueLookups
		if fr.ord != nil {
			if ex.ord == nil {
				ex.ord = make(map[xmltree.NodeID]string, len(fr.ord))
			}
			for k, v := range fr.ord {
				ex.ord[k] = v
			}
		}
		ops.merge(fr.ops)
	}
	return ex, nil
}

// scanPostings drains and closes a tag cursor.
func scanPostings(cur *storage.TagCursor) ([]storage.Posting, error) {
	var ps []storage.Posting
	for {
		p, ok := cur.Next()
		if !ok {
			break
		}
		ps = append(ps, p)
	}
	err := cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	return ps, err
}

// postingWindow returns the sub-slice of one document's postings (start
// order) whose starts lie in [lo, hi].
func postingWindow(ps []storage.Posting, lo, hi uint32) []storage.Posting {
	i := sort.Search(len(ps), func(k int) bool { return ps[k].Interval.Start >= lo })
	j := i + sort.Search(len(ps)-i, func(k int) bool { return ps[i+k].Interval.Start > hi })
	return ps[i:j]
}

// runFragment evaluates one fragment's match pipeline to completion:
//
//	sliceSource(members) → stepIter* (join path) → populate (grouping
//	values) ── left ─┐
//	sliceSource(members) → stepIter* (value path) ── right ─┤→ mergeLOJ
//
// plus, when ordering is requested, a third replay through the order
// path, duplicate elimination (first match per member) and projection
// into the fragment's ordering-value map. The selection steps read the
// fragment's candidate windows, so a fragment opens no index cursor;
// it reads the heap only to populate values.
func runFragment(db storage.Reader, spec Spec, f *fragment, batchSize int) (*fragResult, error) {
	ops := newOpSet()
	fr := &fragResult{ops: ops}

	var left Iterator = newSliceSource(f.members)
	for _, st := range spec.JoinPath {
		left = newStep(left, st, f.cands[st.Tag], batchSize, ops.get("select: join "+st.Tag))
	}
	popCounts := ops.get("populate: grouping values")
	pop := newPopulate(left, db, popCounts)
	var right Iterator = newSliceSource(f.members)
	for _, st := range spec.ValuePath {
		right = newStep(right, st, f.cands[st.Tag], batchSize, ops.get("select: value "+st.Tag))
	}
	loj := newMergeLOJ(pop, right, batchSize, ops.get("mergejoin: values"))

	// Size the rows for one row per member or per grouping-basis
	// candidate, whichever is more — exact for one-valued members.
	fr.rows = make([]Row, 0, max(len(f.members), len(f.cands[spec.BasisTag()])))
	err := drain(loj, batchSize, func(rows []Row) { fr.rows = append(fr.rows, rows...) })
	if err != nil {
		return nil, err
	}
	// Witnesses and value pairs are index postings; the populated
	// grouping values are the early value look-ups Sec. 5.3 allows.
	fr.stats.IndexPostings += int(popCounts.rowsOut) + int(loj.rightRows)
	fr.stats.ValueLookups += int(popCounts.rowsOut)

	if spec.OrderPath != nil {
		var oit Iterator = newSliceSource(f.members)
		for _, st := range spec.OrderPath {
			oit = newStep(oit, st, f.cands[st.Tag], batchSize, ops.get("select: order "+st.Tag))
		}
		deCounts := ops.get("dupelim: order matches")
		ordPopCounts := ops.get("populate: ordering values")
		opp := newPopulate(newDupElim(oit, deCounts), db, ordPopCounts)
		fr.ord = map[xmltree.NodeID]string{}
		err = drain(opp, batchSize, func(rows []Row) {
			for _, r := range rows {
				fr.ord[r.Member.ID()] = r.Key
			}
		})
		if err != nil {
			return nil, err
		}
		fr.stats.IndexPostings += int(deCounts.rowsIn)
		fr.stats.ValueLookups += int(ordPopCounts.rowsOut)
	}
	return fr, nil
}

// drain opens it, hands every batch's rows to fn and closes it.
func drain(it Iterator, batchSize int, fn func([]Row)) error {
	err := func() error {
		if err := it.Open(); err != nil {
			return err
		}
		b := getBatch(batchSize)
		defer putBatch(b)
		for {
			if err := it.Next(b); err != nil {
				return err
			}
			if len(b.Rows) == 0 {
				return nil
			}
			fn(b.Rows)
		}
	}()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return err
}
