package engine

import (
	"context"
	"strings"
	"testing"

	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// TestMatcherByteIdenticalAcrossMatchers is the tentpole acceptance
// check at the engine level: the physical plan under every matcher, at
// parallelism 1 and 4, serializes byte-identically — the matcher
// changes access patterns, never answers. Covers both the grouping
// query (physical forced) and the non-grouping fallback.
func TestMatcherByteIdenticalAcrossMatchers(t *testing.T) {
	e := sampleEngine(t, Options{})
	ctx := context.Background()
	for _, src := range []string{query1, nonGrouping} {
		pq, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if pq.Pattern == nil {
			t.Fatal("prepared plan lost its pattern tree")
		}
		base, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: match.MatcherBinary, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if base.Matcher != match.MatcherBinary {
			t.Errorf("binary override ran %v", base.Matcher)
		}
		want := base.Serialize()
		for _, kind := range []match.MatcherKind{match.MatcherAuto, match.MatcherBinary, match.MatcherTwig} {
			for _, par := range []int{1, 4} {
				res, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: kind, Parallelism: par})
				if err != nil {
					t.Fatalf("matcher=%v p=%d: %v", kind, par, err)
				}
				if res.Serialize() != want {
					t.Errorf("matcher=%v p=%d: output differs from binary baseline", kind, par)
				}
				if kind != match.MatcherAuto && res.Matcher != kind {
					t.Errorf("requested matcher %v, result reports %v", kind, res.Matcher)
				}
			}
		}
	}
}

// TestAutoMatcherObserved: an auto physical execution records the
// planner's matcher pick — the planner_matcher_picks_total counter and
// a plan_decision journal event labeled "matcher:<name>" — while an
// explicit override records neither.
func TestAutoMatcherObserved(t *testing.T) {
	journal := obs.NewJournal(256)
	db, err := storage.CreateTemp(storage.Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	e := New(db, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matcher == match.MatcherAuto {
		t.Error("auto execution did not resolve to a concrete matcher")
	}
	picks := e.Registry().CounterVec("planner_matcher_picks_total", "", "matcher")
	if got := picks.With(res.Matcher.String()).Load(); got != 1 {
		t.Errorf("planner_matcher_picks_total{%s} = %d, want 1", res.Matcher, got)
	}
	var matcherEvents int
	for _, ev := range journal.Events(obs.EventFilter{Types: []obs.EventType{obs.EvPlanDecision}}) {
		if strings.HasPrefix(ev.Label, "matcher:") {
			matcherEvents++
			if ev.Label != "matcher:"+res.Matcher.String() {
				t.Errorf("plan_decision label = %q, want matcher:%s", ev.Label, res.Matcher)
			}
			if ev.Count != 2 {
				t.Errorf("plan_decision candidates = %d, want 2", ev.Count)
			}
		}
	}
	if matcherEvents != 1 {
		t.Errorf("matcher plan_decision events = %d, want 1", matcherEvents)
	}

	// An override is the caller's choice, not a planner pick.
	if _, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: match.MatcherBinary}); err != nil {
		t.Fatal(err)
	}
	if got := picks.With(match.MatcherBinary.String()).Load() + picks.With(match.MatcherTwig.String()).Load(); got != 1 {
		t.Errorf("override incremented planner_matcher_picks_total (total %d, want 1)", got)
	}
}

// TestExplainReportsMatcher: EXPLAIN surfaces the planner's matcher
// choice — candidates cost-sorted, the chosen matcher cheapest, the
// join order over the pattern labels — in both the struct and the
// text rendering, and an override shows up as the matcher with no
// candidates.
func TestExplainReportsMatcher(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	x := pq.Explain(ExecOptions{})
	if x.Matcher != "binary" && x.Matcher != "twig" {
		t.Fatalf("Explain matcher = %q, want a concrete pick", x.Matcher)
	}
	if len(x.MatcherCandidates) != 2 {
		t.Fatalf("matcher candidates = %+v, want 2", x.MatcherCandidates)
	}
	if x.MatcherCandidates[0].Cost > x.MatcherCandidates[1].Cost {
		t.Errorf("matcher candidates not cost-sorted: %+v", x.MatcherCandidates)
	}
	if x.MatcherCandidates[0].Matcher != x.Matcher {
		t.Errorf("chose %q but cheapest matcher candidate is %q", x.Matcher, x.MatcherCandidates[0].Matcher)
	}
	if len(x.JoinOrder) == 0 {
		t.Error("Explain reports no join order")
	}
	txt := x.Text()
	if !strings.Contains(txt, "matcher: "+x.Matcher) || !strings.Contains(txt, "matcher candidates:") {
		t.Errorf("Text() missing matcher lines:\n%s", txt)
	}

	forced := pq.Explain(ExecOptions{Matcher: match.MatcherBinary})
	if forced.Matcher != "binary" {
		t.Errorf("override explain matcher = %q, want binary", forced.Matcher)
	}
	if len(forced.MatcherCandidates) != 0 {
		t.Errorf("override explain lists planner candidates: %+v", forced.MatcherCandidates)
	}
}

// TestMatcherPickNeverFarFromBest is the matcher sibling of
// TestPlannerPickNeverFarFromBest: on a bench-style fixture the
// planner-picked matcher must not cost more than 1.5x the accesses of
// the best explicit matcher.
func TestMatcherPickNeverFarFromBest(t *testing.T) {
	db, pq := pickFixture(t)
	auto, err := pq.Execute(context.Background(), ExecOptions{Strategy: exec.StrategyPhysical})
	if err != nil {
		t.Fatal(err)
	}
	costs := map[match.MatcherKind]int64{}
	best := int64(-1)
	for _, kind := range []match.MatcherKind{match.MatcherBinary, match.MatcherTwig} {
		costs[kind] = accessCount(t, db, pq, ExecOptions{Strategy: exec.StrategyPhysical, Matcher: kind})
		if best < 0 || costs[kind] < best {
			best = costs[kind]
		}
	}
	picked := costs[auto.Matcher]
	t.Logf("planner picked matcher %v: %d accesses; candidates %v", auto.Matcher, picked, costs)
	if float64(picked) > 1.5*float64(best) {
		t.Errorf("planner picked matcher %v at %d accesses; best needs %d (> 1.5x; costs %v)",
			auto.Matcher, picked, best, costs)
	}
}
