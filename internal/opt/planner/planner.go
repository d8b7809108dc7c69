// Package planner is the cost-based half of the optimizer. opt.Rewrite
// decides the plan *shape* — whether the GROUPBY operator applies;
// planner.Choose decides the plan *strategy* — which physical executor
// runs the shape cheapest on the data at hand, using the cardinality
// statistics the storage layer maintains (internal/stats). The engine
// invokes Choose when a query is executed with exec.StrategyAuto (the
// zero value), so engine.ExecOptions{} means "planner decides". It is
// a sibling of internal/opt rather than part of it because the exec
// package's own tests exercise the rewrite (opt → exec here would
// cycle through them).
package planner

import (
	"fmt"
	"sort"

	"timber/internal/exec"
	"timber/internal/stats"
)

// Cost-model unit weights, all in abstract "posting accesses": one
// sequential index posting scanned or merged costs 1; fetching a node
// record to read its content (a value look-up) costs several posting
// scans; navigating through the locator index costs more still (a
// B+tree probe plus a record fetch); materializing an output node is
// between the two. The absolute scale cancels out — only the ratios
// steer the choice — and the ratios follow the paper's Sec. 6
// analysis: identifier processing is cheap, value look-ups and
// navigation dominate.
const (
	costPosting     = 1.0
	costValueLookup = 6.0
	costNav         = 10.0
	costMaterialize = 2.5
	costSortRow     = 1.5
)

// Candidate is one costed strategy alternative.
type Candidate struct {
	Strategy exec.Strategy
	Cost     float64
	// Detail summarizes where the cost comes from, for EXPLAIN output.
	Detail string
}

// OpEstimate is one physical operator's estimated output cardinality,
// named exactly as the executor's trace span (minus the "op: " report
// prefix) so EXPLAIN can join estimates against actuals.
type OpEstimate struct {
	Op   string
	Rows float64
}

// Decision is the planner's choice plus the reasoning behind it.
type Decision struct {
	// Strategy is the chosen physical plan.
	Strategy exec.Strategy
	// Candidates holds every costed alternative, cheapest first.
	Candidates []Candidate
	// Operators estimates the chosen plan's per-operator output rows,
	// in pipeline order.
	Operators []OpEstimate
	// Headline cardinality estimates for the whole query.
	Members, Witnesses, Values, Groups float64
	// StatsUsed reports whether cardinality statistics informed the
	// choice; without them (absent catalog) the planner defaults to the
	// streaming groupby plan.
	StatsUsed bool
	// StatsFresh mirrors the catalog's freshness flag (false also when
	// no statistics were available at all).
	StatsFresh bool
}

// cardEst carries the intermediate cardinalities the cost formulas
// share.
type cardEst struct {
	members   float64 // member-tag postings (M)
	witnesses float64 // join-path matches (W)
	values    float64 // value-path matches (V)
	order     float64 // order-path matches (zero without ORDER BY)
	merged    float64 // merge-LOJ output rows (R)
	groups    float64 // distinct grouping values among witnesses (G)
	basis     float64 // all basis-tag postings (B) — the naive plan's outer scan
	joinScan  float64 // postings scanned extending the join path
	valueScan float64 // postings scanned extending the value path
	orderScan float64 // postings scanned extending the order path
	joinRows  []float64
	valRows   []float64
	ordRows   []float64
}

// estimate derives the shared cardinalities from the catalog.
func estimate(cat *stats.Catalog, spec exec.Spec) cardEst {
	var e cardEst
	e.members = cat.Postings(spec.MemberTag)

	walk := func(path exec.Path) (rows []float64, scanned, out float64) {
		prevTag, prev := spec.MemberTag, e.members
		for _, st := range path {
			scanned += cat.Postings(st.Tag) * cat.DocOverlap(spec.MemberTag, st.Tag)
			prev = cat.EdgeCardinality(prevTag, prev, st.Tag)
			rows = append(rows, prev)
			prevTag = st.Tag
		}
		return rows, scanned, prev
	}
	e.joinRows, e.joinScan, e.witnesses = walk(spec.JoinPath)
	e.valRows, e.valueScan, e.values = walk(spec.ValuePath)
	if spec.OrderPath != nil {
		e.ordRows, e.orderScan, e.order = walk(spec.OrderPath)
	}

	// The merge-LOJ pairs each witness with its member's value matches;
	// with V values spread over M members each witness joins to about
	// V/M of them (at least its own row — it is a LEFT outer join).
	perMember := 1.0
	if e.members > 0 && e.values > e.members {
		perMember = e.values / e.members
	}
	e.merged = e.witnesses * perMember

	e.groups = cat.DistinctValues(spec.BasisTag())
	if e.groups > e.witnesses && e.witnesses > 0 {
		e.groups = e.witnesses
	}
	e.basis = cat.Postings(spec.BasisTag())
	return e
}

// Choose costs the candidate physical plans for a grouping Spec and
// returns the cheapest, with per-operator estimates for EXPLAIN. A nil
// or empty catalog yields the streaming groupby default with
// StatsUsed=false (estimates all zero).
func Choose(cat *stats.Catalog, spec exec.Spec) *Decision {
	if cat == nil || len(cat.Tags) == 0 || cat.TotalNodes == 0 {
		d := &Decision{Strategy: exec.StrategyGroupBy}
		d.Candidates = []Candidate{{Strategy: exec.StrategyGroupBy, Detail: "no statistics; streaming groupby default"}}
		d.Operators = streamingOps(spec, cardEst{})
		return d
	}
	e := estimate(cat, spec)

	outputLookups := 0.0 // sink value look-ups (Titles materializes V contents; Count none)
	if spec.Mode == exec.Titles {
		outputLookups = e.values
	}
	orderCost := costPosting*e.orderScan + costValueLookup*e.order

	// Streaming groupby: identifier-only pipeline; value look-ups only
	// for grouping values (W) and the sink's output (Titles).
	streaming := costPosting*(e.members+e.joinScan+e.valueScan) + // scans + selects
		costValueLookup*e.witnesses + // populate grouping values
		costPosting*(e.witnesses+e.values) + // merge-LOJ
		costSortRow*e.merged + // sort
		costPosting*e.merged + // stitch (+aggregate)
		costValueLookup*outputLookups +
		costMaterialize*(e.groups+outputLookups) +
		orderCost

	// Naive direct plan: populate ALL basis values up front (B
	// look-ups, not W), then navigate per distinct value to build the
	// product trees — locator probes instead of identifier joins.
	navDepth := float64(len(spec.JoinPath) + len(spec.ValuePath))
	direct := costPosting*e.basis + costValueLookup*e.basis +
		costNav*e.witnesses*navDepth +
		costValueLookup*outputLookups +
		costMaterialize*(e.values+e.groups) +
		orderCost

	cands := []Candidate{
		{Strategy: exec.StrategyGroupBy, Cost: streaming,
			Detail: fmt.Sprintf("scan %.0f + populate %.0f values + sort %.0f rows", e.members+e.joinScan+e.valueScan, e.witnesses, e.merged)},
		{Strategy: exec.StrategyDirect, Cost: direct,
			Detail: fmt.Sprintf("populate %.0f basis values + navigate %.0f witnesses", e.basis, e.witnesses)},
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })

	d := &Decision{
		Strategy:   cands[0].Strategy,
		Candidates: cands,
		Members:    e.members,
		Witnesses:  e.witnesses,
		Values:     e.values,
		Groups:     e.groups,
		StatsUsed:  true,
		StatsFresh: cat.Fresh,
	}
	if d.Strategy == exec.StrategyDirect {
		d.Operators = directOps(e)
	} else {
		d.Operators = streamingOps(spec, e)
	}
	return d
}

// Describe returns the per-operator estimates for an explicitly
// requested strategy — EXPLAIN under an override still shows what the
// planner expects of it. Returns nil for strategies the cost model
// doesn't cover (the batch direct variant, plan-level strategies).
func Describe(cat *stats.Catalog, spec exec.Spec, strat exec.Strategy) []OpEstimate {
	var e cardEst
	if cat != nil && len(cat.Tags) > 0 && cat.TotalNodes > 0 {
		e = estimate(cat, spec)
	}
	switch strat {
	case exec.StrategyAuto, exec.StrategyGroupBy:
		return streamingOps(spec, e)
	case exec.StrategyDirect:
		return directOps(e)
	}
	return nil
}

// streamingOps lists the streaming groupby pipeline's operators with
// their estimated output rows, named as the executor's trace spans.
func streamingOps(spec exec.Spec, e cardEst) []OpEstimate {
	ops := []OpEstimate{{"scan: member postings", e.members}}
	for i, st := range spec.JoinPath {
		ops = append(ops, OpEstimate{"select: join " + st.Tag, at(e.joinRows, i)})
	}
	ops = append(ops, OpEstimate{"populate: grouping values", e.witnesses})
	for i, st := range spec.ValuePath {
		ops = append(ops, OpEstimate{"select: value " + st.Tag, at(e.valRows, i)})
	}
	ops = append(ops, OpEstimate{"mergejoin: values", e.merged})
	if spec.OrderPath != nil {
		for i, st := range spec.OrderPath {
			ops = append(ops, OpEstimate{"select: order " + st.Tag, at(e.ordRows, i)})
		}
		first := e.order
		if first > e.members && e.members > 0 {
			first = e.members // dupelim keeps the first match per member
		}
		ops = append(ops,
			OpEstimate{"dupelim: order matches", first},
			OpEstimate{"populate: ordering values", first})
	}
	ops = append(ops,
		OpEstimate{"sort: witnesses", e.merged},
		// Stitch re-emits every sorted row plus one boundary marker per
		// group — its rows_out counter includes both.
		OpEstimate{"stitch: group boundaries", e.merged + e.groups})
	if spec.Mode == exec.Count {
		ops = append(ops, OpEstimate{"aggregate: group counts", e.groups})
	}
	ops = append(ops, OpEstimate{"materialize: groups", e.groups})
	return ops
}

// directOps mirrors directMaterialized's phase spans.
func directOps(e cardEst) []OpEstimate {
	return []OpEstimate{
		{"materialize: outer selection", e.basis},
		{"sjoin: join path", e.witnesses},
		{"materialize: product trees", e.groups},
		{"eval: RETURN arguments", e.groups},
	}
}

func at(rows []float64, i int) float64 {
	if i < len(rows) {
		return rows[i]
	}
	return 0
}
