package exec

import (
	"fmt"
	"sort"
	"strings"

	"timber/internal/storage"
)

// Strategy names one of the physical evaluation plans. It lives on
// Spec — the strategy is part of the compiled query description — and
// Run dispatches on it, replacing the old per-variant exported
// functions.
type Strategy int

const (
	// StrategyAuto — the zero value — runs the groupby plan, which
	// beats direct evaluation on both of the paper's experiments
	// (Sec. 6). Through the engine, a query the grouping rewrite does
	// not apply to falls back to StrategyPhysical; Result.Strategy
	// reports what actually ran.
	StrategyAuto Strategy = iota
	// StrategyGroupBy is the TIMBER groupby plan with identifier-only
	// processing and deferred value population (Sec. 5.3) — the plan
	// the optimizer's rewrite targets and auto runs.
	StrategyGroupBy
	// StrategyDirect is the fully materialized direct execution of the
	// naive plan (Sec. 4.1 / Sec. 6 "direct").
	StrategyDirect
	// StrategyDirectBatch is the batch direct variant (index
	// identification + hash join).
	StrategyDirectBatch
	// StrategyLogical evaluates the logical plan over fully loaded
	// documents — the reference semantics every physical plan is tested
	// against. It needs the plan itself, not a Spec, so Run rejects it;
	// the engine facade (or ExecLogical) is the path that runs it.
	StrategyLogical
	// StrategyPhysical is the generic index-accelerated evaluation of
	// an arbitrary logical plan. Like StrategyLogical it needs the
	// plan, so Run rejects it; the engine facade (or ExecPhysical) runs
	// it.
	StrategyPhysical
)

// strategyNames maps each Strategy to its canonical flag spelling.
var strategyNames = map[Strategy]string{
	StrategyAuto:        "auto",
	StrategyGroupBy:     "groupby",
	StrategyDirect:      "direct",
	StrategyDirectBatch: "direct-batch",
	StrategyLogical:     "logical",
	StrategyPhysical:    "physical",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy maps a flag spelling to its Strategy — the inverse of
// String, used by the CLIs and the serve daemon.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("exec: unknown strategy %q (valid: %s)", name, strings.Join(StrategyNames(), ", "))
}

// StrategyNames returns every valid strategy spelling, sorted — the
// enumeration ParseStrategy's error reports and the CLIs document.
func StrategyNames() []string {
	names := make([]string, 0, len(strategyNames))
	for _, n := range strategyNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes a Spec with the strategy it names. It is the single
// public Spec-execution path: the per-strategy functions are package
// internals and the engine facade builds on Run. Plan-level strategies
// (logical, physical) need the logical plan rather than a Spec, so Run
// rejects them — the engine dispatches those to ExecLogical and
// ExecPhysical with its cached plans.
func Run(db *storage.DB, spec Spec, o Options) (*Result, error) {
	// Pin one snapshot for the whole run: every operator of the query —
	// including exchange fragments on other goroutines — reads the same
	// committed epoch, so results are byte-identical to a quiesced run
	// even while documents are inserted or deleted concurrently.
	sn := db.Snapshot()
	defer sn.Close()
	switch spec.Strategy {
	case StrategyAuto, StrategyGroupBy:
		return groupByExec(sn, spec, o)
	case StrategyDirect:
		return directMaterialized(sn, spec, o)
	case StrategyDirectBatch:
		return directBatch(sn, spec, o)
	case StrategyLogical, StrategyPhysical:
		return nil, fmt.Errorf("exec: strategy %v evaluates a logical plan, not a Spec; use the engine facade (or ExecLogical/ExecPhysical)", spec.Strategy)
	default:
		return nil, fmt.Errorf("exec: unknown strategy %v", spec.Strategy)
	}
}
