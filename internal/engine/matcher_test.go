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

// TestAutoMatcherObserved: an auto physical execution reports the
// concrete matcher match.Resolve picks for the plan's pattern — twig,
// since every node of query1's pattern is tagged — and EXPLAIN names
// the same one; an explicit override is reported as requested. A
// physical run emits no plan_estimate event: the planner's estimates
// describe the grouping pipeline only.
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
	o := ExecOptions{Strategy: exec.StrategyPhysical}
	res, err := pq.Execute(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if want := match.Resolve(pq.Pattern, match.MatcherAuto); res.Matcher != want || want != match.MatcherTwig {
		t.Errorf("auto physical run reports matcher %v, want %v (twig)", res.Matcher, want)
	}
	if x := pq.Explain(o); x.Matcher != res.Matcher.String() {
		t.Errorf("Explain matcher = %q, run reports %q", x.Matcher, res.Matcher)
	}
	if n := len(journal.Events(obs.EventFilter{Types: []obs.EventType{obs.EvPlanEstimate}})); n != 0 {
		t.Errorf("physical run emitted %d plan_estimate events, want 0", n)
	}

	o.Matcher = match.MatcherBinary
	forced, err := pq.Execute(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if forced.Matcher != match.MatcherBinary {
		t.Errorf("binary override reports matcher %v", forced.Matcher)
	}
	if x := pq.Explain(o); x.Matcher != "binary" {
		t.Errorf("override explain matcher = %q, want binary", x.Matcher)
	}
}

// TestExplainReportsMatcher: EXPLAIN names a matcher exactly when the
// strategy that runs is physical, and then the same one Result.Matcher
// reports. On query1 auto runs groupby, which never calls package
// match: no matcher, as the run's Result.Matcher (auto) says. On the
// non-grouping query auto falls back to physical and both name twig.
func TestExplainReportsMatcher(t *testing.T) {
	e := sampleEngine(t, Options{})
	ctx := context.Background()
	for _, tc := range []struct {
		query, strategy, matcher string
	}{
		{query1, "groupby", ""},
		{nonGrouping, "physical", "twig"},
	} {
		pq, err := e.Prepare(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		x := pq.Explain(ExecOptions{})
		if x.Strategy != tc.strategy || x.Matcher != tc.matcher {
			t.Errorf("%s: Explain strategy=%q matcher=%q, want %q and %q", tc.query, x.Strategy, x.Matcher, tc.strategy, tc.matcher)
		}
		res, err := pq.Execute(ctx, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Matcher.String()
		if res.Matcher == match.MatcherAuto {
			want = ""
		}
		if x.Matcher != want {
			t.Errorf("%s: Explain matcher %q disagrees with the run's %v", tc.query, x.Matcher, res.Matcher)
		}
		txt := x.Text()
		if got := strings.Contains(txt, "matcher: "); got != (tc.matcher != "") {
			t.Errorf("%s: Text() matcher line present=%v:\n%s", tc.query, got, txt)
		}
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
