package planner

import (
	"strings"
	"testing"

	"timber/internal/exec"
	"timber/internal/stats"
)

// e1Spec mirrors the paper's Query 1: group articles by author,
// return titles.
func e1Spec() exec.Spec {
	return exec.Spec{
		MemberTag: "article",
		JoinPath:  exec.ChildPath("author"),
		ValuePath: exec.ChildPath("title"),
		OutTag:    "authorpubs",
		Mode:      exec.Titles,
	}
}

// dblpCatalog is a synthetic but realistically-shaped catalog: 1000
// articles in one document, ~2.5 authors each, one title each.
func dblpCatalog() *stats.Catalog {
	return &stats.Catalog{
		Epoch:      3,
		Version:    42,
		TotalNodes: 4700,
		Documents:  1,
		Fresh:      true,
		Tags: map[string]stats.TagStat{
			"article": {Postings: 1000, Docs: 1},
			"author":  {Postings: 2500, Docs: 1, ValuePostings: 2500, DistinctValues: 400},
			"title":   {Postings: 1000, Docs: 1, ValuePostings: 1000, DistinctValues: 990},
		},
	}
}

// TestChooseWithoutStats: no catalog means no cost model — the
// streaming groupby default, flagged as such.
func TestChooseWithoutStats(t *testing.T) {
	for _, cat := range []*stats.Catalog{nil, {}, {TotalNodes: 0, Tags: map[string]stats.TagStat{}}} {
		d := Choose(cat, e1Spec())
		if d.Strategy != exec.StrategyGroupBy {
			t.Errorf("Choose(%v) = %v, want groupby default", cat, d.Strategy)
		}
		if d.StatsUsed || d.StatsFresh {
			t.Errorf("Choose(%v) reported StatsUsed=%v StatsFresh=%v", cat, d.StatsUsed, d.StatsFresh)
		}
		if len(d.Operators) == 0 {
			t.Error("default decision should still outline the pipeline")
		}
	}
}

// TestChooseCostsAllCandidates: with statistics the decision lists the
// two costed plans cheapest-first, the chosen strategy is the
// cheapest, and the headline cardinalities are populated.
func TestChooseCostsAllCandidates(t *testing.T) {
	d := Choose(dblpCatalog(), e1Spec())
	if !d.StatsUsed || !d.StatsFresh {
		t.Errorf("StatsUsed=%v StatsFresh=%v, want both true", d.StatsUsed, d.StatsFresh)
	}
	if len(d.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(d.Candidates))
	}
	seen := map[exec.Strategy]bool{}
	for i, c := range d.Candidates {
		seen[c.Strategy] = true
		if c.Cost <= 0 {
			t.Errorf("candidate %v cost = %v, want > 0", c.Strategy, c.Cost)
		}
		if i > 0 && c.Cost < d.Candidates[i-1].Cost {
			t.Errorf("candidates not sorted by cost: %+v", d.Candidates)
		}
	}
	for _, s := range []exec.Strategy{exec.StrategyGroupBy, exec.StrategyDirect} {
		if !seen[s] {
			t.Errorf("candidate %v missing", s)
		}
	}
	if d.Strategy != d.Candidates[0].Strategy {
		t.Errorf("chose %v but cheapest is %v", d.Strategy, d.Candidates[0].Strategy)
	}
	if d.Members != 1000 || d.Witnesses <= 0 || d.Groups <= 0 {
		t.Errorf("cardinalities M=%v W=%v G=%v", d.Members, d.Witnesses, d.Groups)
	}
	// On this shape identifier-only streaming must beat the naive
	// navigation plan — the paper's headline result.
	var stream, direct float64
	for _, c := range d.Candidates {
		switch c.Strategy {
		case exec.StrategyGroupBy:
			stream = c.Cost
		case exec.StrategyDirect:
			direct = c.Cost
		}
	}
	if stream >= direct {
		t.Errorf("streaming cost %v >= direct cost %v on a groupby-friendly shape", stream, direct)
	}
}

// TestChooseDirectOnTinyData: when the data is small enough that
// navigation is cheap and sort/merge overheads dominate, the planner
// may pick any plan — but it must stay deterministic for one catalog.
func TestChooseDeterministic(t *testing.T) {
	a := Choose(dblpCatalog(), e1Spec())
	b := Choose(dblpCatalog(), e1Spec())
	if a.Strategy != b.Strategy || len(a.Candidates) != len(b.Candidates) {
		t.Errorf("Choose is nondeterministic: %v vs %v", a.Strategy, b.Strategy)
	}
}

// TestOperatorEstimates: the chosen plan's operator list names the
// executor's trace spans and carries plausible row estimates.
func TestOperatorEstimates(t *testing.T) {
	d := Choose(dblpCatalog(), e1Spec())
	names := map[string]float64{}
	for _, op := range d.Operators {
		names[op.Op] = op.Rows
	}
	if v, ok := names["scan: member postings"]; !ok || v != 1000 {
		t.Errorf("scan estimate = %v (present %v), want 1000", v, ok)
	}
	if _, ok := names["select: join author"]; !ok {
		t.Errorf("missing join select; ops = %v", d.Operators)
	}
}

// TestDescribeForcedStrategies: Describe covers the costed pair (and
// auto), returns nil for plans the cost model has no operator map for.
func TestDescribeForcedStrategies(t *testing.T) {
	cat, spec := dblpCatalog(), e1Spec()
	for _, s := range []exec.Strategy{
		exec.StrategyAuto, exec.StrategyGroupBy, exec.StrategyDirect,
	} {
		if ops := Describe(cat, spec, s); len(ops) == 0 {
			t.Errorf("Describe(%v) = empty", s)
		}
	}
	for _, s := range []exec.Strategy{
		exec.StrategyDirectBatch, exec.StrategyLogical, exec.StrategyPhysical,
	} {
		if ops := Describe(cat, spec, s); ops != nil {
			t.Errorf("Describe(%v) = %v, want nil", s, ops)
		}
	}
	// Without statistics Describe still outlines the pipeline (zero
	// estimates) so EXPLAIN renders.
	if ops := Describe(nil, spec, exec.StrategyGroupBy); len(ops) == 0 {
		t.Error("Describe(nil catalog) = empty")
	}
}

// TestOrderPathCosted: an ORDER BY adds order-path operators and cost.
func TestOrderPathCosted(t *testing.T) {
	spec := e1Spec()
	spec.OrderPath = exec.ChildPath("year")
	cat := dblpCatalog()
	cat.Tags["year"] = stats.TagStat{Postings: 1000, Docs: 1, ValuePostings: 1000, DistinctValues: 30}
	d := Choose(cat, spec)
	var found bool
	for _, op := range d.Operators {
		if strings.HasPrefix(op.Op, "select: order ") || op.Op == "populate: ordering values" {
			found = true
		}
	}
	if !found {
		t.Errorf("no ordering operators in %v", d.Operators)
	}
	plain := Choose(dblpCatalog(), e1Spec())
	if d.Candidates[0].Cost <= plain.Candidates[0].Cost {
		t.Errorf("ordered cost %v <= unordered %v", d.Candidates[0].Cost, plain.Candidates[0].Cost)
	}
}
