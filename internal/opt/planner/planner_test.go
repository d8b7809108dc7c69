package planner

import (
	"reflect"
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
		TotalNodes: 4700,
		Documents:  1,
		Tags: map[string]stats.TagStat{
			"article": {Postings: 1000, Docs: 1},
			"author":  {Postings: 2500, Docs: 1, ValuePostings: 2500, DistinctValues: 400},
			"title":   {Postings: 1000, Docs: 1, ValuePostings: 1000, DistinctValues: 990},
		},
	}
}

// TestChooseWithoutStats: no catalog means no estimates — zero
// headline cardinalities, flagged as such, with the groupby pipeline
// still outlined for EXPLAIN.
func TestChooseWithoutStats(t *testing.T) {
	for _, cat := range []*stats.Catalog{nil, {}, {TotalNodes: 0, Tags: map[string]stats.TagStat{}}} {
		d := Estimate(cat, e1Spec(), exec.StrategyAuto)
		if d.StatsUsed {
			t.Errorf("Estimate(%v) reported StatsUsed", cat)
		}
		if d.Groups != 0 {
			t.Errorf("Estimate(%v) = %v groups, want a zero estimate", cat, d.Groups)
		}
		if len(d.Operators) == 0 {
			t.Error("default estimates should still outline the pipeline")
		}
	}
}

// TestChooseDeterministic: one catalog always yields the same
// estimates.
func TestChooseDeterministic(t *testing.T) {
	a := Estimate(dblpCatalog(), e1Spec(), exec.StrategyAuto)
	b := Estimate(dblpCatalog(), e1Spec(), exec.StrategyAuto)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Estimate is nondeterministic: %+v vs %+v", a, b)
	}
}

// TestOperatorEstimates: the auto plan's operator list names the
// executor's trace spans and carries plausible row estimates, and the
// group estimate is populated.
func TestOperatorEstimates(t *testing.T) {
	d := Estimate(dblpCatalog(), e1Spec(), exec.StrategyAuto)
	if !d.StatsUsed {
		t.Error("StatsUsed = false, want true")
	}
	if d.Groups <= 0 {
		t.Errorf("group estimate = %v, want > 0", d.Groups)
	}
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
	if v := names["populate: grouping values"]; v <= 0 {
		t.Errorf("witness estimate = %v, want > 0", v)
	}
}

// TestDescribeForcedStrategies: Estimate maps the operators of auto,
// groupby and direct, and returns none for plans without an operator
// map.
func TestDescribeForcedStrategies(t *testing.T) {
	cat, spec := dblpCatalog(), e1Spec()
	for _, s := range []exec.Strategy{
		exec.StrategyAuto, exec.StrategyGroupBy, exec.StrategyDirect,
	} {
		if ops := Estimate(cat, spec, s).Operators; len(ops) == 0 {
			t.Errorf("Estimate(%v) = empty", s)
		}
	}
	for _, s := range []exec.Strategy{
		exec.StrategyDirectBatch, exec.StrategyLogical, exec.StrategyPhysical,
	} {
		if ops := Estimate(cat, spec, s).Operators; ops != nil {
			t.Errorf("Estimate(%v) = %v, want nil", s, ops)
		}
	}
	// Without statistics Estimate still outlines the pipeline (zero
	// estimates) so EXPLAIN renders.
	if ops := Estimate(nil, spec, exec.StrategyGroupBy).Operators; len(ops) == 0 {
		t.Error("Estimate(nil catalog) = empty")
	}
}

// TestOrderPathCosted: an ORDER BY adds the order-path operators, with
// their row estimates, to the pipeline.
func TestOrderPathCosted(t *testing.T) {
	spec := e1Spec()
	spec.OrderPath = exec.ChildPath("year")
	cat := dblpCatalog()
	cat.Tags["year"] = stats.TagStat{Postings: 1000, Docs: 1, ValuePostings: 1000, DistinctValues: 30}
	d := Estimate(cat, spec, exec.StrategyAuto)
	var found bool
	for _, op := range d.Operators {
		if strings.HasPrefix(op.Op, "select: order ") || op.Op == "populate: ordering values" {
			found = true
			if op.Rows <= 0 {
				t.Errorf("ordering operator %q estimates %v rows, want > 0", op.Op, op.Rows)
			}
		}
	}
	if !found {
		t.Errorf("no ordering operators in %v", d.Operators)
	}
	plain := Estimate(dblpCatalog(), e1Spec(), exec.StrategyAuto)
	if len(d.Operators) <= len(plain.Operators) {
		t.Errorf("ordered pipeline has %d operators, unordered %d", len(d.Operators), len(plain.Operators))
	}
}
