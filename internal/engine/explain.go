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
// that strategy is physical, and — once the query has run — each
// operator's output rows, read off the execution trace. It renders as
// text (Text) and marshals directly to JSON.
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
	// Matcher is the pattern-matching algorithm the run uses, as
	// Result.Matcher reports it: set only when the strategy is
	// physical (match.Resolve's pick for the plan's pattern), empty for
	// strategies that never run package match.
	Matcher string `json:"matcher,omitempty"`
	// Operators lists the traced operators of the executed run with
	// their output rows (see operatorRows); empty before execution.
	Operators []ExplainOp `json:"operators,omitempty"`
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

// ExplainOp is one traced operator's output row count.
type ExplainOp struct {
	Op         string `json:"op"`
	ActualRows int64  `json:"actual_rows"`
}

// Explain reports the plan the engine would run for these options
// without executing anything or reading the database.
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
	switch {
	case !pq.Applied:
		if o.Strategy != exec.StrategyLogical && o.Strategy != exec.StrategyPhysical {
			x.Note = "grouping idiom not detected; generic physical plan"
		}
	case strat != exec.StrategyLogical && strat != exec.StrategyPhysical && o.Strategy != exec.StrategyAuto:
		x.Note = "strategy forced by caller"
	}
	return x
}

// ExplainExecute runs the prepared plan and returns the EXPLAIN report
// with the per-operator row counts of the execution trace, alongside
// the result itself. The trace is the one Execute owns: the caller's
// ExecOptions.Tracer when set (so `timber query -explain -trace` and
// timber-serve read the same tree the report was built from), else the
// engine's wall-clock-only one.
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
	x.Operators = operatorRows(data)
	return x, res, nil
}

// operatorRows lists the operators of a traced run: every span that
// carries a row counter of its own, in pre-order, one entry per name
// once the "op: " report prefix is stripped. The first span of a name
// fixes its place; a report span's count (its rows_out, the exact
// operator output) replaces the phase span's.
func operatorRows(root *obs.SpanData) []ExplainOp {
	var ops []ExplainOp
	at := map[string]int{}
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		if v, ok := spanRows(d); ok {
			name, report := strings.CutPrefix(d.Name, "op: ")
			if i, seen := at[name]; !seen {
				at[name] = len(ops)
				ops = append(ops, ExplainOp{Op: name, ActualRows: v})
			} else if report {
				ops[i].ActualRows = v
			}
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(root)
	return ops
}

// spanRows extracts a span's output row count from its own operator
// counters.
func spanRows(d *obs.SpanData) (int64, bool) {
	for _, k := range []string{"rows_out", "witnesses", "groups", "pairs", "postings", "product_trees", "distinct", "rows", "value_lookups"} {
		if v, ok := d.Ops[k]; ok {
			return v, true
		}
	}
	return 0, false
}

// Text renders the report as an indented tree.
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
	if len(x.Operators) > 0 {
		b.WriteString("operators:\n")
		for _, op := range x.Operators {
			fmt.Fprintf(&b, "  %-32s actual %10d\n", op.Op, op.ActualRows)
		}
	}
	if x.Executed {
		fmt.Fprintf(&b, "groups: actual %d\n", x.ActualGroups)
		fmt.Fprintf(&b, "elapsed: %v\n", time.Duration(x.ElapsedNS).Round(time.Microsecond))
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (x *Explain) JSON() ([]byte, error) {
	return json.MarshalIndent(x, "", "  ")
}
