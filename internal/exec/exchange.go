package exec

import (
	"context"
	"slices"
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
// posting a path step below these members can match. ranks is parallel
// to the grouping-basis tag's window: each covered posting's value
// rank, noRank where the value-range scan did not cover it, nil when
// it covered none of the document.
type fragment struct {
	members []storage.Posting
	cands   map[string][]storage.Posting
	ranks   []uint32
}

// fragResult is one fragment's match output: the joined witness/value
// rows in document order, the grouping values it read from the heap
// (provisional rank scanned+i is fallback[i]), its ordering values, its
// stats contribution and its operator counters.
type fragResult struct {
	rows     []Row
	fallback []string
	lookups  int
	ord      map[xmltree.NodeID]string
	stats    ExecStats
	ops      *opSet
}

// exchange is the parallel match phase's output: every fragment's rows,
// by reference and in document order, for the group sort to consume
// without a concatenating copy.
type exchange struct {
	// frags holds each fragment's rows; their concatenation is the
	// arrival order.
	frags [][]Row
	// names[r] is the grouping value of rank r, in ascending byte
	// order; every row's Key indexes it.
	names []string
	// rows is the total row count over frags.
	rows int
	// cands counts the pre-scanned candidate postings, valuePostings
	// the value-range scan's postings, and fallbacks the grouping values
	// read from the heap.
	cands         int
	valuePostings int
	fallbacks     int
	ord           map[xmltree.NodeID]string
	stats         ExecStats
}

// rankedStart is one value-range posting of a member document: its
// start and its value's rank.
type rankedStart struct {
	start, rank uint32
}

// runExchange parallelizes the match phase. The member posting list is
// scanned once, and so is each document's posting list of every join-,
// value- and order-path tag — sequential index passes, independent of
// the worker count. Beside them runs one value-range scan of the
// grouping-basis tag (storage ValueRangeStream): it yields the distinct
// grouping values in byte order, so a value's rank is its position in
// the scan, and after the barrier each document's basis postings take
// their ranks (rankPostings). Each document's members are
// cut into fragments (cutMembers), and each fragment's pipeline —
// selection steps over its candidate windows, grouping-value ranking,
// value-path selection and the merge left-outer-join — runs on a
// worker-pool slot. Fragment outputs land in pre-assigned slots in
// document order, so the arrival order is byte-identical for any
// parallelism: the exchange only reorders work, never rows. Grouping
// values the scan did not cover were read from the heap inside the
// fragments; after the fragments' barrier they are sorted and merged
// into the rank space (mergeFallback).
func runExchange(db *storage.Snapshot, spec Spec, ctx context.Context, workers, batchSize int, ops *opSet) (*exchange, error) {
	ex := &exchange{}
	scanCounts := ops.get("scan: member postings")
	members, err := storage.Drain(db.TagStream(spec.MemberTag))
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
	docIdx := map[xmltree.DocID]int{}
	for i := 0; i < len(members); {
		j := i
		for j < len(members) && members[j].Interval.Doc == members[i].Interval.Doc {
			j++
		}
		docIdx[members[i].Interval.Doc] = len(docs)
		docs = append(docs, members[i:j])
		i = j
	}
	if len(docs) == 0 {
		return ex, nil
	}

	// One sequential scan per (document, path tag) and one value-range
	// scan of the basis tag (job 0, the longest); all run side by side.
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
	basis := spec.BasisTag()
	lists := make([][]storage.Posting, len(docs)*len(tags))
	hits := make([][]rankedStart, len(docs))
	if err := par.Do(ctx, len(lists)+1, workers, func(i int) error {
		if i == 0 {
			// Consecutive blocks of equal content are one value.
			s := db.ValueRangeStream(basis)
			for ps, ok := s.NextBlock(); ok; ps, ok = s.NextBlock() {
				if v := s.Value(); len(ex.names) == 0 || string(v) != ex.names[len(ex.names)-1] {
					ex.names = append(ex.names, string(v))
				}
				r := uint32(len(ex.names) - 1)
				ex.valuePostings += len(ps)
				for _, p := range ps {
					if d, ok := docIdx[p.Interval.Doc]; ok {
						hits[d] = append(hits[d], rankedStart{p.Interval.Start, r})
					}
				}
			}
			return s.Close()
		}
		i--
		doc := docs[i/len(tags)][0].Interval.Doc
		ps, err := storage.Drain(db.TagDocStream(tags[i%len(tags)], doc))
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
		var ranks []uint32
		if len(hits[d]) > 0 {
			ranks = rankPostings(lists[d*len(tags)+slices.Index(tags, basis)], hits[d])
		}
		for _, fm := range cutMembers(ms, fragmentMembers) {
			lo := fm[0].Interval.Start
			var hi uint32
			for _, m := range fm {
				hi = max(hi, m.Interval.End)
			}
			f := fragment{members: fm, cands: make(map[string][]storage.Posting, len(tags))}
			for t, tag := range tags {
				ps := lists[d*len(tags)+t]
				i, j := postingWindow(ps, lo, hi)
				f.cands[tag] = ps[i:j]
				if tag == basis && ranks != nil {
					f.ranks = ranks[i:j]
				}
			}
			frags = append(frags, f)
		}
	}

	frs := make([]*fragResult, len(frags))
	if err := par.Do(ctx, len(frags), workers, func(i int) error {
		fr, err := runFragment(db, spec, &frags[i], len(ex.names), batchSize)
		frs[i] = fr
		return err
	}); err != nil {
		return nil, err
	}

	ex.frags = make([][]Row, len(frs))
	for i, fr := range frs {
		ex.frags[i] = fr.rows
		ex.rows += len(fr.rows)
		ex.fallbacks += fr.lookups
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
	ex.mergeFallback(frs)
	return ex, nil
}

// rankPostings returns the rank array parallel to one document's basis
// postings (start order): each posting the value-range scan yielded
// gets its value's rank, the rest get noRank. The hits arrive in value
// order; a radix sort by start puts them in the postings' order, and
// one merge pass assigns the ranks.
func rankPostings(basis []storage.Posting, hits []rankedStart) []uint32 {
	hits = radixByStart(hits)
	ranks := make([]uint32, len(basis))
	k := 0
	for i := range ranks {
		ranks[i] = noRank
		st := basis[i].Interval.Start
		for k < len(hits) && hits[k].start < st {
			k++
		}
		if k < len(hits) && hits[k].start == st {
			ranks[i] = hits[k].rank
		}
	}
	return ranks
}

// radixByStart sorts hits by start, a byte at a time from the least
// significant, skipping the high bytes no start uses.
func radixByStart(hits []rankedStart) []rankedStart {
	var top uint32
	for _, h := range hits {
		top |= h.start
	}
	tmp := make([]rankedStart, len(hits))
	for shift := 0; shift < 32 && top>>shift != 0; shift += 8 {
		var slot [256]int
		for _, h := range hits {
			slot[byte(h.start>>shift)]++
		}
		n := 0
		for b, c := range slot {
			slot[b] = n
			n += c
		}
		for _, h := range hits {
			b := byte(h.start >> shift)
			tmp[slot[b]] = h
			slot[b]++
		}
		hits, tmp = tmp, hits
	}
	return hits
}

// mergeFallback folds the grouping values the fragments read from the
// heap into the rank space: the distinct values are sorted and merged
// with the scanned ones, and every row's provisional rank is rewritten
// to its merged rank. Without a value index every value takes this
// path, and the merge is the whole dictionary sort. With no fallback
// values it does nothing.
func (ex *exchange) mergeFallback(frs []*fragResult) {
	var fb []string
	seen := map[string]bool{}
	for _, fr := range frs {
		for _, v := range fr.fallback {
			if !seen[v] {
				seen[v] = true
				fb = append(fb, v)
			}
		}
	}
	if len(fb) == 0 {
		return
	}
	slices.Sort(fb)
	scanned := ex.names
	merged := make([]string, 0, len(scanned)+len(fb))
	scanRank := make([]uint32, len(scanned))
	fbRank := make(map[string]uint32, len(fb))
	for i, j := 0, 0; i < len(scanned) || j < len(fb); {
		r := uint32(len(merged))
		switch {
		case j == len(fb) || (i < len(scanned) && scanned[i] < fb[j]):
			scanRank[i] = r
			merged = append(merged, scanned[i])
			i++
		case i == len(scanned) || fb[j] < scanned[i]:
			fbRank[fb[j]] = r
			merged = append(merged, fb[j])
			j++
		default: // the same value on both sides keeps one rank
			scanRank[i], fbRank[fb[j]] = r, r
			merged = append(merged, fb[j])
			i, j = i+1, j+1
		}
	}
	ex.names = merged
	n := uint32(len(scanned))
	var local []uint32
	for _, fr := range frs {
		local = local[:0]
		for _, v := range fr.fallback {
			local = append(local, fbRank[v])
		}
		for i := range fr.rows {
			if k := fr.rows[i].Key; k < n {
				fr.rows[i].Key = scanRank[k]
			} else {
				fr.rows[i].Key = local[k-n]
			}
		}
	}
}

// postingWindow returns the bounds [i, j) of the postings of one
// document (start order) whose starts lie in [lo, hi].
func postingWindow(ps []storage.Posting, lo, hi uint32) (i, j int) {
	i = sort.Search(len(ps), func(k int) bool { return ps[k].Interval.Start >= lo })
	j = i + sort.Search(len(ps)-i, func(k int) bool { return ps[i+k].Interval.Start > hi })
	return i, j
}

// postingIndex returns the index of the posting starting at start in
// one document's postings (start order), or -1.
func postingIndex(ps []storage.Posting, start uint32) int {
	k := sort.Search(len(ps), func(k int) bool { return ps[k].Interval.Start >= start })
	if k < len(ps) && ps[k].Interval.Start == start {
		return k
	}
	return -1
}

// runFragment evaluates one fragment's match pipeline to completion:
//
//	sliceSource(members) → stepIter* (join path) → rank (grouping
//	values) ── left ─┐
//	sliceSource(members) → stepIter* (value path) ── right ─┤→ mergeLOJ
//
// plus, when ordering is requested, a third replay through the order
// path, duplicate elimination (first match per member) and a heap
// population of the fragment's ordering-value map. The selection steps
// read the fragment's candidate windows, so a fragment opens no index
// cursor. Grouping values come ranked from the exchange's value-range
// scan (rankIter); the heap is read only for the grouping values the
// scan did not cover, and for ordering values. scanned is the number
// of ranks the scan assigned.
func runFragment(db *storage.Snapshot, spec Spec, f *fragment, scanned, batchSize int) (*fragResult, error) {
	ops := newOpSet()
	fr := &fragResult{ops: ops}

	var left Iterator = newSliceSource(f.members)
	for _, st := range spec.JoinPath {
		left = newStep(left, st, f.cands[st.Tag], batchSize, ops.get("select: join "+st.Tag))
	}
	rankCounts := ops.get("populate: grouping values")
	rk := newRank(left, db, f.cands[spec.BasisTag()], f.ranks, scanned, rankCounts)
	var right Iterator = newSliceSource(f.members)
	for _, st := range spec.ValuePath {
		right = newStep(right, st, f.cands[st.Tag], batchSize, ops.get("select: value "+st.Tag))
	}
	loj := newMergeLOJ(rk, right, batchSize, ops.get("mergejoin: values"))

	// Size the rows for one row per member or per grouping-basis
	// candidate, whichever is more — exact for one-valued members.
	fr.rows = make([]Row, 0, max(len(f.members), len(f.cands[spec.BasisTag()])))
	err := drain(loj, batchSize, func(rows []Row) error {
		fr.rows = append(fr.rows, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Witnesses and value pairs are index postings; the grouping values
	// read from the heap are the early value look-ups Sec. 5.3 allows.
	fr.fallback, fr.lookups = rk.fallback, rk.lookups
	fr.stats.IndexPostings += int(rankCounts.rowsOut) + int(loj.rightRows)
	fr.stats.ValueLookups += rk.lookups

	if spec.OrderPath != nil {
		var oit Iterator = newSliceSource(f.members)
		for _, st := range spec.OrderPath {
			oit = newStep(oit, st, f.cands[st.Tag], batchSize, ops.get("select: order "+st.Tag))
		}
		deCounts := ops.get("dupelim: order matches")
		ordPopCounts := ops.get("populate: ordering values")
		fr.ord = map[xmltree.NodeID]string{}
		var ps []storage.Posting
		var vals []string
		err = drain(newDupElim(oit, deCounts), batchSize, func(rows []Row) error {
			ps = ps[:0]
			for _, r := range rows {
				ps = append(ps, r.Aux)
			}
			vals = slices.Grow(vals[:0], len(ps))[:len(ps)]
			if err := db.ContentsBatch(ps, vals); err != nil {
				return err
			}
			for i, r := range rows {
				fr.ord[r.Member.ID()] = vals[i]
			}
			ordPopCounts.in(len(rows))
			ordPopCounts.out(len(rows))
			ordPopCounts.batch()
			return nil
		})
		if err != nil {
			return nil, err
		}
		fr.stats.IndexPostings += int(deCounts.rowsIn)
		fr.stats.ValueLookups += int(ordPopCounts.rowsOut)
	}
	return fr, nil
}

// drain opens it, hands every batch's rows to fn and closes it; an
// error from fn stops the drain.
func drain(it Iterator, batchSize int, fn func([]Row) error) error {
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
			if err := fn(b.Rows); err != nil {
				return err
			}
		}
	}()
	if cerr := it.Close(); err == nil {
		err = cerr
	}
	return err
}
