package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
)

// Explain is the first-class EXPLAIN report: the strategy that runs
// (auto's rule, or the override that preempted it), the matcher when
// that strategy is physical, and per-operator cardinality estimates —
// joined against the actuals from the execution trace when the query
// has run. It renders as text (Text) and marshals directly to JSON.
type Explain struct {
	// Query is the source text.
	Query string `json:"query"`
	// Applied reports whether the GROUPBY rewrite produced the
	// physical grouping plan the strategies below execute.
	Applied bool `json:"grouping_rewrite"`
	// Requested is the strategy the caller asked for ("auto" when the
	// engine's rule decided).
	Requested string `json:"requested_strategy"`
	// Strategy is the plan that was (or would be) run.
	Strategy string `json:"strategy"`
	// StatsUsed reports whether cardinality statistics informed the
	// estimates. They are computed from the current state on demand,
	// so they are always exact; only an empty database has none.
	StatsUsed bool `json:"stats_used"`
	// Matcher is the pattern-matching algorithm the run uses, as
	// Result.Matcher reports it: set only when the strategy is
	// physical (match.Resolve's pick for the plan's pattern), empty for
	// strategies that never run package match.
	Matcher string `json:"matcher,omitempty"`
	// Operators estimates each physical operator's output rows, in
	// pipeline order; after execution ActualRows carries the traced
	// row counts.
	Operators []ExplainOp `json:"operators,omitempty"`
	// EstGroups is the planner's estimate of the result-group count.
	EstGroups float64 `json:"est_groups,omitempty"`
	// Executed reports whether the actuals below are populated.
	Executed bool `json:"executed"`
	// ActualGroups is the executed run's group count (-1 before
	// execution).
	ActualGroups int64 `json:"actual_groups"`
	// ElapsedNS is the executed run's wall time.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// Note carries fallback explanations (e.g. rewrite not applied).
	Note string `json:"note,omitempty"`
}

// ExplainOp is one physical operator's estimated (and, after
// execution, actual) output cardinality.
type ExplainOp struct {
	Op      string  `json:"op"`
	EstRows float64 `json:"est_rows"`
	// ActualRows is -1 until the query executes (or when the trace
	// carried no row count for the operator).
	ActualRows int64 `json:"actual_rows"`
}

// Explain reports the plan the engine would run for these options,
// with per-operator cardinality estimates, without executing anything.
func (pq *PreparedQuery) Explain(o ExecOptions) *Explain {
	strat := pq.resolvePlan(o.Strategy)
	x := &Explain{
		Query:        pq.Text,
		Applied:      pq.Applied,
		Requested:    o.Strategy.String(),
		Strategy:     strat.String(),
		ActualGroups: -1,
	}
	if m := pq.matcherFor(strat, o.Matcher); m != match.MatcherAuto {
		x.Matcher = m.String()
	}
	if !pq.Applied {
		if o.Strategy != exec.StrategyLogical && o.Strategy != exec.StrategyPhysical {
			x.Note = "grouping idiom not detected; generic physical plan"
		}
		return x
	}
	switch strat {
	case exec.StrategyLogical, exec.StrategyPhysical:
		return x
	}
	if o.Strategy != exec.StrategyAuto {
		x.Note = "strategy forced by caller"
	}
	est := pq.estimates(strat)
	x.StatsUsed = est.StatsUsed
	x.EstGroups = est.Groups
	for _, op := range est.Operators {
		x.Operators = append(x.Operators, ExplainOp{Op: op.Op, EstRows: op.Rows, ActualRows: -1})
	}
	return x
}

// ExplainExecute runs the prepared plan and returns the EXPLAIN report
// with estimates joined against the actual per-operator row counts
// from the execution trace, alongside the result itself. The trace is
// the one Execute owns: the caller's ExecOptions.Tracer when set (so
// `timber query -explain -trace` and timber-serve read the same tree
// the report was joined from), else the engine's wall-clock-only one.
// The group estimate's error against the run is recorded in
// planner_estimate_error and a plan_estimate event; plain Execute
// builds no estimates and records neither.
func (pq *PreparedQuery) ExplainExecute(ctx context.Context, o ExecOptions) (*Explain, *Result, error) {
	x := pq.Explain(o)
	start := time.Now()
	res, data, err := pq.run(ctx, o)
	if err != nil {
		return nil, nil, err
	}
	x.Executed = true
	x.ElapsedNS = time.Since(start).Nanoseconds()
	x.Strategy = res.Strategy.String()
	x.ActualGroups = int64(res.Stats.Groups)
	if res.Strategy == exec.StrategyLogical || res.Strategy == exec.StrategyPhysical {
		// Plan evaluation reports no ExecStats; each output tree is one
		// result group.
		x.ActualGroups = int64(len(res.Trees))
	}
	actuals := map[string]int64{}
	collectActuals(data, actuals)
	for i := range x.Operators {
		if v, ok := actuals[x.Operators[i].Op]; ok {
			x.Operators[i].ActualRows = v
		}
	}
	pq.eng.observeEstimate(obs.QueryIDFrom(ctx), x)
	return x, res, nil
}

// collectActuals flattens a span tree into operator-name → row-count,
// stripping the "op: " report prefix so names line up with the
// planner's estimates. Report spans (rows_out) overwrite phase spans
// of the same name — they carry the exact operator output.
func collectActuals(d *obs.SpanData, out map[string]int64) {
	name := strings.TrimPrefix(d.Name, "op: ")
	if v, ok := spanRows(d); ok {
		out[name] = v
	}
	for _, c := range d.Children {
		collectActuals(c, out)
	}
}

// spanRows extracts a span's output row count from its operator
// counters. Spans without a row-like counter of their own (e.g. the
// "sjoin: join path" parent) inherit the last child's — the final
// step's output is the phase's.
func spanRows(d *obs.SpanData) (int64, bool) {
	for _, k := range []string{"rows_out", "witnesses", "groups", "pairs", "postings", "product_trees", "distinct", "rows", "value_lookups"} {
		if v, ok := d.Ops[k]; ok {
			return v, true
		}
	}
	if n := len(d.Children); n > 0 {
		return spanRows(d.Children[n-1])
	}
	return 0, false
}

// Text renders the report as an indented tree, estimates beside
// actuals.
func (x *Explain) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s (requested %s)\n", x.Strategy, x.Requested)
	if x.Matcher != "" {
		fmt.Fprintf(&b, "matcher: %s\n", x.Matcher)
	}
	if !x.Applied {
		b.WriteString("grouping rewrite: not applied\n")
	}
	if x.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", x.Note)
	}
	if !x.StatsUsed && x.Applied {
		b.WriteString("statistics: unavailable\n")
	}
	if len(x.Operators) > 0 {
		b.WriteString("operators:\n")
		for _, op := range x.Operators {
			fmt.Fprintf(&b, "  %-32s est %10.0f", op.Op, op.EstRows)
			if x.Executed {
				if op.ActualRows >= 0 {
					fmt.Fprintf(&b, "  actual %10d", op.ActualRows)
				} else {
					fmt.Fprintf(&b, "  actual          ?")
				}
			}
			b.WriteByte('\n')
		}
	}
	if x.Executed {
		fmt.Fprintf(&b, "groups: est %.0f actual %d\n", x.EstGroups, x.ActualGroups)
		fmt.Fprintf(&b, "elapsed: %v\n", time.Duration(x.ElapsedNS).Round(time.Microsecond))
	} else if x.EstGroups > 0 {
		fmt.Fprintf(&b, "groups: est %.0f\n", x.EstGroups)
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (x *Explain) JSON() ([]byte, error) {
	return json.MarshalIndent(x, "", "  ")
}
