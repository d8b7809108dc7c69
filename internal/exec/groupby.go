package exec

import (
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// Result is a physical execution's output plus its work counters.
type Result struct {
	// Trees are the materialized result elements (authorpubs...).
	Trees []*xmltree.Node
	// Stats counts the plan's work.
	Stats ExecStats
}

// ExecStats itemizes the data accesses a plan performed; buffer-pool
// effects are visible through storage.DB.Stats.
type ExecStats struct {
	// IndexPostings is the number of postings read from tag indices.
	IndexPostings int
	// ValueLookups counts node-record fetches performed to read element
	// contents — the "data value look-ups" the paper's analysis centres
	// on.
	ValueLookups int
	// LocatorProbes counts node-ID-to-record resolutions through the
	// locator index (navigation); identifier processing avoids these.
	LocatorProbes int
	// Groups is the number of output trees.
	Groups int
}

// groupByExec runs the TIMBER groupby plan (Sec. 5.3) as a streaming
// iterator pipeline over identifier-only batches:
//
//	exchange (member-range fragments over pre-scanned postings, beside
//	          one value-range scan of the grouping-basis tag that
//	          ranks the grouping values in byte order)
//	  fragment: members → select* (join path) → rank ─┐
//	            members → select* (value path) ──────┤→ merge-LOJ
//	→ groupsort (blocking: one stable counting pass over the grouping
//	             values' ranks; fragment rows taken by reference;
//	             spillable)
//	→ stitch (group boundaries)            [streaming]
//	→ aggregate (Count mode only)          [streaming]
//	→ late-materialize sink (a rank becomes its string once per group)
//
// The grouping values — the early population Sec. 5.3 allows — come
// ranked from the value index: the exchange's one value-range scan
// yields them in sorted order, so a row carries its value's rank and
// no heap page is read for it. Only a grouping value the scan did not
// cover (empty, longer than the value index's length bound, or a
// database without a value index) is read from the heap, inside the
// fragments, and merged into the rank space after the exchange. The
// ordering values are populated from the heap inside the fragments.
// Only the sink reads output value content — and only in Titles mode;
// a count query over indexed grouping values finishes without a single
// value fetch ("we can perform the count without physically
// instantiating the elements").
//
// Groups are emitted in ascending grouping-value order, and the result
// trees, group order and ExecStats are byte-identical for every
// parallelism, batch size and sort budget: the exchange's fragments are
// cut by the data and their rows arrive at the sort in document order,
// the sort's order is total (arrival position breaks every tie), and
// each operator preserves its input's row order.
func groupByExec(db storage.Reader, spec Spec, o Options) (*Result, error) {
	if err := o.err(); err != nil {
		return nil, err
	}
	res := &Result{}
	sp := o.trace("exec: groupby")
	defer sp.End()
	bs := o.BatchSize
	ops := newOpSet()

	// Phase 1: parallel match. The exchange barrier is also the span
	// boundary — fragments never touch the tracer.
	exSp := sp.Child("exchange: match fragments")
	ex, err := runExchange(db, spec, o.Ctx, o.workers(), bs, ops)
	if err != nil {
		exSp.End()
		return nil, err
	}
	exSp.Add("rows", int64(ex.rows))
	exSp.Add("fragments", int64(len(ex.frags)))
	exSp.Add("candidates", int64(ex.cands))
	exSp.Add("value_postings", int64(ex.valuePostings))
	exSp.Add("fallback_lookups", int64(ex.fallbacks))
	exSp.Add("fragment_ops", int64(len(ops.order)))
	exSp.End()

	// Phase 2..4: sort, stitch, aggregate, materialize. The sort takes
	// the fragments' rows by reference. The chain is closed bottom-up
	// through the root before the result spill below (the sort's spill
	// region shares the temporary-page latch with it).
	var ov map[xmltree.NodeID]string
	if spec.OrderPath != nil {
		ov = ex.ord
	}
	gs := newGroupSort(ex.frags, db, len(ex.names), ov, spec.OrderDesc, o.SortMemRows, ops.get("sort: witnesses"))
	ex.frags = nil
	var top Iterator = newStitch(gs, bs, ops.get("stitch: group boundaries"))
	if spec.Mode == Count {
		top = newAggregate(top, bs, ops.get("aggregate: group counts"))
	}

	sortSp := sp.Child("sort: witnesses")
	err = gs.Open()
	sortSp.Add("witnesses", gs.counts.rowsIn)
	if gs.spool != nil {
		sortSp.Add("spilled_runs", int64(len(gs.runs)))
	}
	sortSp.End()
	if err != nil {
		top.Close()
		return nil, err
	}

	matSp := sp.Child("materialize: groups")
	snk := newSink(db, spec, o.Ctx, o.MaxMaterializeBytes, ex.names)
	err = snk.drain(top, bs)
	if cerr := top.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		matSp.End()
		return nil, err
	}
	matSp.Add("groups", int64(len(snk.trees)))
	matSp.Add("value_lookups", int64(snk.looks))
	matSp.End()

	res.Trees = snk.trees
	res.Stats = ex.stats
	res.Stats.ValueLookups += snk.looks

	// Per-operator report spans: rows in/out and batch counts for every
	// operator of the run, aggregated across fragments. The spans carry
	// no counter deltas of their own (they open and close immediately on
	// the orchestrating goroutine), so trace verification still holds.
	for _, c := range ops.all() {
		opSp := sp.Child("op: " + c.name)
		opSp.Add("rows_in", c.rowsIn)
		opSp.Add("rows_out", c.rowsOut)
		opSp.Add("batches", c.batches)
		opSp.End()
	}

	if err := finishResult(db, res, sp); err != nil {
		return nil, err
	}
	return res, nil
}
