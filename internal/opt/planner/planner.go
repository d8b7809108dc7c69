// Package planner holds the optimizer's cardinality estimates. The
// plan itself is fixed by rule: opt.Rewrite decides the plan *shape* —
// whether the GROUPBY operator applies — and the engine runs the
// groupby plan whenever it does (the paper's Sec. 6 result). Estimate
// turns the cardinality statistics the storage layer computes on
// demand from a snapshot's indexes (internal/stats) into per-operator
// row estimates for EXPLAIN; ExplainExecute joins them against the
// run's actuals and records the error in plan_estimate events. It is
// a sibling of internal/opt rather than part of it because the exec
// package's own tests exercise the rewrite (opt → exec here would
// cycle through them).
package planner

import (
	"timber/internal/exec"
	"timber/internal/stats"
)

// OpEstimate is one physical operator's estimated output cardinality,
// named exactly as the executor's trace span (minus the "op: " report
// prefix) so EXPLAIN can join estimates against actuals.
type OpEstimate struct {
	Op   string
	Rows float64
}

// Estimates is what the planner expects of one strategy's run.
type Estimates struct {
	// Operators estimates the plan's per-operator output rows, in
	// pipeline order; nil for strategies without an operator map (the
	// batch direct variant, plan-level strategies).
	Operators []OpEstimate
	// Groups estimates the result-group count.
	Groups float64
	// StatsUsed reports whether cardinality statistics informed the
	// estimates; without them (absent or empty catalog) every estimate
	// is zero.
	StatsUsed bool
}

// cardEst carries the intermediate cardinalities the operator lists
// share.
type cardEst struct {
	members   float64 // member-tag postings (M)
	witnesses float64 // join-path matches (W)
	values    float64 // value-path matches (V)
	order     float64 // order-path matches (zero without ORDER BY)
	merged    float64 // merge-LOJ output rows (R)
	groups    float64 // distinct grouping values among witnesses (G)
	basis     float64 // all basis-tag postings (B) — the naive plan's outer scan
	joinRows  []float64
	valRows   []float64
	ordRows   []float64
}

// estimate derives the shared cardinalities from the catalog.
func estimate(cat *stats.Catalog, spec exec.Spec) cardEst {
	var e cardEst
	e.members = cat.Postings(spec.MemberTag)

	walk := func(path exec.Path) (rows []float64, out float64) {
		prevTag, prev := spec.MemberTag, e.members
		for _, st := range path {
			prev = cat.EdgeCardinality(prevTag, prev, st.Tag)
			rows = append(rows, prev)
			prevTag = st.Tag
		}
		return rows, prev
	}
	e.joinRows, e.witnesses = walk(spec.JoinPath)
	e.valRows, e.values = walk(spec.ValuePath)
	if spec.OrderPath != nil {
		e.ordRows, e.order = walk(spec.OrderPath)
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

// Estimate returns the planner's expectations of running the grouping
// Spec under strat: the group count and, for the strategies
// that have an operator map (auto and groupby, which run the same
// pipeline, and direct), the per-operator rows. A nil or empty catalog
// yields zero estimates with StatsUsed=false; the operator list still
// outlines the pipeline so EXPLAIN renders.
func Estimate(cat *stats.Catalog, spec exec.Spec, strat exec.Strategy) *Estimates {
	var e cardEst
	x := &Estimates{}
	if cat != nil && len(cat.Tags) > 0 && cat.TotalNodes > 0 {
		e = estimate(cat, spec)
		x.Groups = e.groups
		x.StatsUsed = true
	}
	switch strat {
	case exec.StrategyAuto, exec.StrategyGroupBy:
		x.Operators = streamingOps(spec, e)
	case exec.StrategyDirect:
		x.Operators = directOps(e)
	}
	return x
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
