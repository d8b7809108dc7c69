package exec

import (
	"sort"

	"timber/internal/pagestore"
	"timber/internal/storage"
	"timber/internal/tax"
	"timber/internal/xmltree"
)

// groupSortIter is the blocking GROUPBY operator: it takes the
// exchange's fragment rows by reference (their concatenation is the
// arrival order, the stable-sort tie-breaker) and orders them by
// (grouping value, member ordering value, arrival). Downstream
// operators see runs of equal grouping values — the groups — in
// ascending value order, exactly the sort of Sec. 5.3.
//
// The sort counts rather than compares rows (sortRows): each row's Key
// is its grouping value's rank, which the exchange took from the value
// index's byte order, so one stable counting pass over the ranks places
// every row into a single output array — no dictionary, no string
// comparison. With an ordering list, a stable sort by ordering value
// then runs inside each group.
//
// Memory: with SortMemRows unset the sort is in-memory (identifier
// rows only; values were never materialized). With a budget, each
// SortMemRows rows of arrival order are sorted and spilled as an
// encoded-row run through the storage spool — the spilled pages
// compete with base data in the buffer pool, the TIMBER
// intermediate-collection cost model — and Next serves a k-way merge
// over the runs. Each run's cursor pins one pool frame for the duration
// of the merge, so the budget should be sized to keep the run count
// well below the pool size. Either path emits the byte-identical row
// order: the order is total (arrival breaks every tie).
type groupSortIter struct {
	frags   [][]Row
	db      *storage.Snapshot
	ov      map[xmltree.NodeID]string
	desc    bool
	memRows int
	// ranks is the size of the rank space: every row's Key is below it.
	ranks  int
	counts *opCounts

	opened bool
	buf    []Row
	// spill state
	spool   *storage.Spool
	runs    []*storage.SpoolRun
	cursors []*pagestore.HeapCursor
	heads   []Row
	headOk  []bool
	// in-memory serve state
	pos int
	enc []byte
	// sortRows scratch, reused across spilled runs
	ends []int
	vals []string
}

func newGroupSort(frags [][]Row, db *storage.Snapshot, ranks int, ov map[xmltree.NodeID]string, desc bool, memRows int, counts *opCounts) *groupSortIter {
	return &groupSortIter{frags: frags, db: db, ranks: ranks, ov: ov, desc: desc, memRows: memRows, counts: counts}
}

// less is the total sort order: grouping value, then the member's
// ordering value under the requested direction, then arrival order.
// The k-way merge of spilled runs compares with it; sortRows produces
// the same order without calling it.
func (g *groupSortIter) less(a, b *Row) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	if g.ov != nil {
		c := tax.CompareValues(g.ov[a.Member.ID()], g.ov[b.Member.ID()])
		if g.desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.Ord < b.Ord
}

func (g *groupSortIter) Open() error {
	if g.opened {
		return nil
	}
	g.opened = true
	n := 0
	for _, f := range g.frags {
		n += len(f)
	}
	g.counts.in(n)
	segs := g.frags
	g.frags = nil
	base := 0
	if g.memRows > 0 {
		for n-base > g.memRows {
			var run [][]Row
			run, segs = splitRows(segs, g.memRows)
			if err := g.spillRun(run, int64(base)); err != nil {
				return err
			}
			base += g.memRows
		}
	}
	g.buf = g.sortRows(make([]Row, n-base), segs, int64(base))
	if len(g.runs) > 0 {
		return g.openMerge()
	}
	return nil
}

// splitRows cuts the first n rows off a list of row segments.
func splitRows(segs [][]Row, n int) (head, tail [][]Row) {
	for n > 0 {
		s := segs[0]
		if len(s) > n {
			head = append(head, s[:n])
			segs[0] = s[n:]
			break
		}
		head = append(head, s)
		segs = segs[1:]
		n -= len(s)
	}
	return head, segs
}

// sortRows places the rows of segs (arrival order, the first at arrival
// position base) into dst in the order less defines, stamping each
// row's Ord with its arrival position, and returns dst. dst must hold
// exactly the rows of segs.
func (g *groupSortIter) sortRows(dst []Row, segs [][]Row, base int64) []Row {
	// Count the rows per rank, then turn the counts into each group's
	// first slot.
	if cap(g.ends) < g.ranks {
		g.ends = make([]int, g.ranks)
	}
	g.ends = g.ends[:g.ranks]
	clear(g.ends)
	for _, seg := range segs {
		for i := range seg {
			g.ends[seg[i].Key]++
		}
	}
	slot := 0
	for k, n := range g.ends {
		g.ends[k] = slot
		slot += n
	}
	// One stable placement pass.
	i := 0
	for _, seg := range segs {
		for j := range seg {
			p := g.ends[seg[j].Key]
			g.ends[seg[j].Key]++
			dst[p] = seg[j]
			dst[p].Ord = base + int64(i)
			i++
		}
	}
	if g.ov != nil {
		for lo := 0; lo < len(dst); {
			hi := lo + 1
			for hi < len(dst) && dst[hi].Key == dst[lo].Key {
				hi++
			}
			if hi-lo > 1 {
				g.sortGroup(dst[lo:hi])
			}
			lo = hi
		}
	}
	return dst
}

// sortGroup stably sorts one group's rows (arrival order) by their
// members' ordering values.
func (g *groupSortIter) sortGroup(rows []Row) {
	g.vals = g.vals[:0]
	for _, r := range rows {
		g.vals = append(g.vals, g.ov[r.Member.ID()])
	}
	sort.Stable(byOrderValue{rows: rows, vals: g.vals, desc: g.desc})
}

// byOrderValue orders a group's rows by ordering value; vals[i] is
// rows[i]'s value and moves with it.
type byOrderValue struct {
	rows []Row
	vals []string
	desc bool
}

func (s byOrderValue) Len() int           { return len(s.rows) }
func (s byOrderValue) Less(i, j int) bool { return orderLess(s.vals[i], s.vals[j], s.desc) }
func (s byOrderValue) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// spillRun sorts one run of arrival order (starting at arrival
// position base) and writes it to the spool.
func (g *groupSortIter) spillRun(segs [][]Row, base int64) error {
	if g.spool == nil {
		g.spool = g.db.NewSpool()
		g.buf = make([]Row, g.memRows)
	}
	run, err := g.spool.NewRun()
	if err != nil {
		return err
	}
	for _, r := range g.sortRows(g.buf, segs, base) {
		g.enc = encodeRow(g.enc[:0], r)
		if err := run.Append(g.enc); err != nil {
			return err
		}
	}
	g.runs = append(g.runs, run)
	return nil
}

// openMerge opens a cursor per spilled run and primes the merge heads.
// The in-memory tail (already sorted) merges as run index len(runs).
func (g *groupSortIter) openMerge() error {
	k := len(g.runs)
	g.cursors = make([]*pagestore.HeapCursor, k)
	g.heads = make([]Row, k+1)
	g.headOk = make([]bool, k+1)
	for i, run := range g.runs {
		g.cursors[i] = run.Open()
		if err := g.advanceRun(i); err != nil {
			return err
		}
	}
	return g.advanceRun(k)
}

// advanceRun refills the merge head for run i (the last index is the
// in-memory tail).
func (g *groupSortIter) advanceRun(i int) error {
	if i == len(g.runs) {
		if g.pos < len(g.buf) {
			g.heads[i] = g.buf[g.pos]
			g.pos++
			g.headOk[i] = true
		} else {
			g.headOk[i] = false
		}
		return nil
	}
	rec, ok := g.cursors[i].Next()
	if !ok {
		g.headOk[i] = false
		return g.cursors[i].Err()
	}
	r, err := decodeRow(rec)
	if err != nil {
		return err
	}
	g.heads[i] = r
	g.headOk[i] = true
	return nil
}

func (g *groupSortIter) Next(b *Batch) error {
	b.Reset()
	if len(g.runs) == 0 {
		n := len(g.buf) - g.pos
		if room := cap(b.Rows) - len(b.Rows); n > room {
			n = room
		}
		b.Rows = append(b.Rows, g.buf[g.pos:g.pos+n]...)
		g.pos += n
	} else {
		for !b.full() {
			best := -1
			for i := range g.heads {
				if !g.headOk[i] {
					continue
				}
				if best < 0 || g.less(&g.heads[i], &g.heads[best]) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			b.Rows = append(b.Rows, g.heads[best])
			if err := g.advanceRun(best); err != nil {
				return err
			}
		}
	}
	g.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		g.counts.batch()
	}
	return nil
}

func (g *groupSortIter) Close() error {
	var err error
	for _, c := range g.cursors {
		if c == nil {
			continue
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	g.cursors = nil
	if g.spool != nil {
		if serr := g.spool.Close(); err == nil {
			err = serr
		}
		g.spool = nil
	}
	return err
}
