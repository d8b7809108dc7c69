package exec

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/storage"
)

// TestParseStrategyRoundTrip: every Strategy's String() parses back to
// itself, and unknown spellings are rejected with a helpful message.
func TestParseStrategyRoundTrip(t *testing.T) {
	all := []Strategy{
		StrategyAuto, StrategyGroupBy, StrategyDirect, StrategyDirectBatch,
		StrategyLogical, StrategyPhysical,
	}
	for _, s := range all {
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("ParseStrategy(%q) = %v, want %v", s.String(), got, s)
		}
	}
	// The error must name the bad input and enumerate every valid
	// spelling.
	_, err := ParseStrategy("turbo")
	if err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Errorf("ParseStrategy(turbo) err = %v, want mention of the bad name", err)
	}
	for _, name := range StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ParseStrategy error %q does not list %q", err, name)
		}
	}
	want := []string{"auto", "direct", "direct-batch", "groupby", "logical", "physical"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) || len(got) != len(all) {
		t.Errorf("StrategyNames() = %v, want %v", got, want)
	}
}

// TestRunDispatchesEveryStrategy: Run on each Spec-level strategy
// produces the same row multiset as the logical reference, and the
// zero-value Strategy is the groupby plan.
func TestRunDispatchesEveryStrategy(t *testing.T) {
	db := sampleDB(t)
	naive, _, spec := plansFor(t, query1Src)
	ln, err := ExecLogical(db, naive)
	if err != nil {
		t.Fatal(err)
	}
	want := sorted(rows(ln.Trees))
	for _, strat := range specStrategies {
		spec := spec
		spec.Strategy = strat
		res, err := Run(db, spec, Options{})
		if err != nil {
			t.Fatalf("Run(%v): %v", strat, err)
		}
		if got := sorted(rows(res.Trees)); !reflect.DeepEqual(got, want) {
			t.Errorf("Run(%v) = %v, want %v", strat, got, want)
		}
	}
	// The zero value is auto — groupby, through the engine or below
	// it.
	var zero Spec
	if zero.Strategy != StrategyAuto {
		t.Errorf("zero-value Strategy = %v, want StrategyAuto", zero.Strategy)
	}
	auto := spec
	auto.Strategy = StrategyAuto
	res, err := Run(db, auto, Options{})
	if err != nil {
		t.Fatalf("Run(auto): %v", err)
	}
	if got := sorted(rows(res.Trees)); !reflect.DeepEqual(got, want) {
		t.Errorf("Run(auto) = %v, want %v", got, want)
	}
}

// TestRunRejectsPlanLevelStrategies: logical and physical evaluate a
// plan, not a Spec, so Run must refuse them rather than misexecute.
func TestRunRejectsPlanLevelStrategies(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	for _, strat := range []Strategy{StrategyLogical, StrategyPhysical} {
		spec := spec
		spec.Strategy = strat
		if _, err := Run(db, spec, Options{}); err == nil {
			t.Errorf("Run(%v) succeeded, want an error", strat)
		}
	}
	spec.Strategy = Strategy(99)
	if _, err := Run(db, spec, Options{}); err == nil {
		t.Error("Run(unknown strategy) succeeded, want an error")
	}
}

// TestRunCancelledContext: every Spec-level strategy must notice an
// already-cancelled context and return ctx.Err() with no result, at
// parallelism 1 and 4 — the promptness half of the cancellation
// contract (the buffer-pool-integrity half is pinned by the engine
// tests' counter-exactness check).
func TestRunCancelledContext(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range specStrategies {
		for _, p := range []int{1, 4} {
			spec := spec
			spec.Strategy = strat
			res, err := Run(db, spec, Options{Parallelism: p, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Run(%v p=%d) err = %v, want context.Canceled", strat, p, err)
			}
			if res != nil {
				t.Errorf("Run(%v p=%d) returned a result after cancellation", strat, p)
			}
		}
	}
	// The generic physical path observes cancellation too.
	_, rewritten, _ := plansFor(t, query1Src)
	if _, err := ExecPhysical(db, rewritten, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecPhysical err = %v, want context.Canceled", err)
	}
}

// specStrategies are the three Spec-level strategies of the Sec. 6
// comparison: the naive materialized direct plan, its batch variant and
// the groupby identifier plan.
var specStrategies = []Strategy{StrategyDirect, StrategyDirectBatch, StrategyGroupBy}

// generatedDB loads a synthetic DBLP document of the given size.
func generatedDB(t *testing.T, articles int, seed int64) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: articles, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestGroupByFewestValueLookups is the paper's Sec. 5 claim in exact
// counts: on both Sec. 6 queries every strategy forms the same groups,
// and the groupby identifier plan populates strictly fewer values than
// each of the other two, each run starting from a cold pool.
func TestGroupByFewestValueLookups(t *testing.T) {
	db := generatedDB(t, 400, 11)
	for _, src := range []string{query1Src, queryCountSrc} {
		_, _, spec := plansFor(t, src)
		stats := map[Strategy]ExecStats{}
		for _, strat := range specStrategies {
			if err := db.DropCache(); err != nil {
				t.Fatal(err)
			}
			db.ResetStats()
			spec := spec
			spec.Strategy = strat
			res, err := Run(db, spec, Options{})
			if err != nil {
				t.Fatalf("%v: %v", strat, err)
			}
			if db.Stats().PhysicalReads == 0 {
				t.Errorf("%v: no physical reads on a cold pool", strat)
			}
			stats[strat] = res.Stats
		}
		gb := stats[StrategyGroupBy]
		if gb.Groups == 0 {
			t.Fatal("no groups produced")
		}
		for strat, st := range stats {
			if st.Groups != gb.Groups {
				t.Errorf("%v groups = %d, groupby groups = %d", strat, st.Groups, gb.Groups)
			}
			if strat != StrategyGroupBy && gb.ValueLookups >= st.ValueLookups {
				t.Errorf("groupby did %d value look-ups, %v %d: want strictly fewer", gb.ValueLookups, strat, st.ValueLookups)
			}
		}
	}
}

// TestResultsMatchAcrossStrategies: all three strategies build the same
// result trees (as an order-insensitive multiset of rendered groups)
// on a generated database.
func TestResultsMatchAcrossStrategies(t *testing.T) {
	db := generatedDB(t, 150, 21)
	_, _, spec := plansFor(t, query1Src)
	render := func(res *Result) []string {
		var out []string
		for _, tr := range res.Trees {
			var b strings.Builder
			for _, c := range tr.Children {
				b.WriteString(c.Tag + "=" + c.Content + ";")
			}
			out = append(out, b.String())
		}
		sort.Strings(out)
		return out
	}
	var want []string
	for _, strat := range specStrategies {
		spec := spec
		spec.Strategy = strat
		res, err := Run(db, spec, Options{})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		got := render(res)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v result differs from the direct plan's", strat)
		}
	}
}
