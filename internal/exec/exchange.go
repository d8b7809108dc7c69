package exec

import (
	"context"

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

// fragResult is one document's match output: the joined witness/value
// rows in document order, the document's ordering values, the
// fragment's stats contribution and its operator counters.
type fragResult struct {
	rows  []Row
	ord   map[xmltree.NodeID]string
	stats ExecStats
	ops   *opSet
}

// exchangeIter parallelizes the match phase: the member posting list is
// scanned once (a single index pass, independent of the worker count),
// partitioned by document, and each document's fragment pipeline —
// selection steps, grouping-value projection, value-path selection and
// the merge left-outer-join — runs on a worker-pool slot. Fragment
// outputs land in pre-assigned slots and are concatenated in document
// order, so the merged stream is byte-identical for any parallelism:
// the exchange only reorders work, never rows.
type exchangeIter struct {
	db        storage.Reader
	spec      Spec
	ctx       context.Context
	workers   int
	batchSize int
	ops       *opSet
	counts    *opCounts

	opened bool
	rows   []Row
	pos    int
	ord    map[xmltree.NodeID]string
	stats  ExecStats
}

func newExchange(db storage.Reader, spec Spec, ctx context.Context, workers, batchSize int, ops *opSet) *exchangeIter {
	return &exchangeIter{
		db:        db,
		spec:      spec,
		ctx:       ctx,
		workers:   workers,
		batchSize: batchSize,
		ops:       ops,
		counts:    ops.get("exchange: merge fragments"),
	}
}

func (e *exchangeIter) Open() error {
	if e.opened {
		return nil
	}
	e.opened = true

	// One sequential pass over the member posting list; the fragments
	// replay slices of it, so the member scan is read once however many
	// fragments and pipelines consume it.
	scanCounts := e.ops.get("scan: member postings")
	cur := e.db.OpenTagCursor(e.spec.MemberTag)
	var members []storage.Posting
	for {
		p, ok := cur.Next()
		if !ok {
			break
		}
		members = append(members, p)
	}
	err := cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	scanCounts.out(len(members))
	if len(members) > 0 {
		scanCounts.batch()
	}
	e.stats.IndexPostings += len(members)

	// Partition by document; the cursor returns key order, so postings
	// of one document are contiguous and documents ascend.
	type docPart struct {
		doc xmltree.DocID
		ps  []storage.Posting
	}
	var parts []docPart
	for i := 0; i < len(members); {
		j := i
		doc := members[i].Interval.Doc
		for j < len(members) && members[j].Interval.Doc == doc {
			j++
		}
		parts = append(parts, docPart{doc: doc, ps: members[i:j]})
		i = j
	}

	frs := make([]*fragResult, len(parts))
	if err := par.Do(e.ctx, len(parts), e.workers, func(i int) error {
		fr, err := runFragment(e.db, e.spec, parts[i].doc, parts[i].ps, e.batchSize)
		if err != nil {
			return err
		}
		frs[i] = fr
		return nil
	}); err != nil {
		return err
	}

	for _, fr := range frs {
		e.rows = append(e.rows, fr.rows...)
		e.stats.IndexPostings += fr.stats.IndexPostings
		e.stats.ValueLookups += fr.stats.ValueLookups
		if fr.ord != nil {
			if e.ord == nil {
				e.ord = make(map[xmltree.NodeID]string, len(fr.ord))
			}
			for k, v := range fr.ord {
				e.ord[k] = v
			}
		}
		e.ops.merge(fr.ops)
	}
	e.counts.in(len(e.rows))
	return nil
}

func (e *exchangeIter) Next(b *Batch) error {
	b.Reset()
	for !b.full() && e.pos < len(e.rows) {
		b.Rows = append(b.Rows, e.rows[e.pos])
		e.pos++
	}
	e.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		e.counts.batch()
	}
	return nil
}

func (e *exchangeIter) Close() error {
	e.rows = nil
	return nil
}

// runFragment evaluates one document's match pipeline to completion:
//
//	sliceSource(members) → stepIter* (join path) → populate (grouping
//	values) ── left ─┐
//	sliceSource(members) → stepIter* (value path) ── right ─┤→ mergeLOJ
//
// plus, when ordering is requested, a third replay through the order
// path, duplicate elimination (first match per member) and projection
// into the fragment's ordering-value map. All iterators are closed
// before returning, so a fragment never holds cursors across the
// exchange barrier.
func runFragment(db storage.Reader, spec Spec, doc xmltree.DocID, members []storage.Posting, batchSize int) (*fragResult, error) {
	ops := newOpSet()
	fr := &fragResult{ops: ops}

	var left Iterator = newSliceSource(members)
	for _, st := range spec.JoinPath {
		left = newStep(left, db, st, doc, batchSize, ops.get("select: join "+st.Tag))
	}
	popCounts := ops.get("populate: grouping values")
	pop := newPopulate(left, db, popCounts)
	var right Iterator = newSliceSource(members)
	for _, st := range spec.ValuePath {
		right = newStep(right, db, st, doc, batchSize, ops.get("select: value "+st.Tag))
	}
	loj := newMergeLOJ(pop, right, batchSize, ops.get("mergejoin: values"))

	err := func() error {
		if err := loj.Open(); err != nil {
			return err
		}
		b := getBatch(batchSize)
		defer putBatch(b)
		for {
			if err := loj.Next(b); err != nil {
				return err
			}
			if len(b.Rows) == 0 {
				return nil
			}
			fr.rows = append(fr.rows, b.Rows...)
		}
	}()
	if cerr := loj.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	// Witnesses and value pairs are index postings; the populated
	// grouping values are the early value look-ups Sec. 5.3 allows.
	fr.stats.IndexPostings += int(popCounts.rowsOut) + int(loj.rightRows)
	fr.stats.ValueLookups += int(popCounts.rowsOut)

	if spec.OrderPath != nil {
		var oit Iterator = newSliceSource(members)
		for _, st := range spec.OrderPath {
			oit = newStep(oit, db, st, doc, batchSize, ops.get("select: order "+st.Tag))
		}
		deCounts := ops.get("dupelim: order matches")
		ordPopCounts := ops.get("populate: ordering values")
		opp := newPopulate(newDupElim(oit, deCounts), db, ordPopCounts)
		fr.ord = map[xmltree.NodeID]string{}
		err = func() error {
			if err := opp.Open(); err != nil {
				return err
			}
			b := getBatch(batchSize)
			defer putBatch(b)
			for {
				if err := opp.Next(b); err != nil {
					return err
				}
				if len(b.Rows) == 0 {
					return nil
				}
				for _, r := range b.Rows {
					fr.ord[r.Member.ID()] = r.Key
				}
			}
		}()
		if cerr := opp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		fr.stats.IndexPostings += int(deCounts.rowsIn)
		fr.stats.ValueLookups += int(ordPopCounts.rowsOut)
	}
	return fr, nil
}
