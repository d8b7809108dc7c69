package timber_test

import (
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/pagestore"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// TestPaperShape is the paper's Sec. 6 result as a deterministic gate:
// on a DBLP-shaped corpus with the benchmarks' pool:data ratio
// (benchPoolPages, near the paper's 32 MB : 100 MB), the groupby plan beats both direct plans on
// both experiments, and wins the count experiment (E2) by a larger
// factor than the titles experiment (E1). Every quantity compared is
// an exact count — buffer-pool fetches from a cold pool and the
// executor's value look-ups — so the gate does not depend on the
// host's speed or load. The paper's wall-time ratios (1.81x titles,
// 6.75x counts, direct E2/E1 0.48) are not asserted.
func TestPaperShape(t *testing.T) {
	const articles = 3000
	db, err := newBenchDB(benchPoolPages(articles))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: articles, Seed: 2002}); err != nil {
		t.Fatal(err)
	}
	authors, err := db.TagPostings("author")
	if err != nil {
		t.Fatal(err)
	}

	type cost struct{ fetches, lookups uint64 }
	run := func(db *storage.DB, text string, strat exec.Strategy) cost {
		t.Helper()
		spec, err := buildQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		spec.Strategy = strat
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		res, err := exec.Run(db, spec, exec.Options{})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Stats.Groups == 0 {
			t.Fatalf("%v: no groups", strat)
		}
		return cost{db.Stats().Fetches, uint64(res.Stats.ValueLookups)}
	}
	plans := []exec.Strategy{exec.StrategyGroupBy, exec.StrategyDirectBatch, exec.StrategyDirect}
	exps := []struct{ name, text string }{
		{"E1", paperdata.Query1Text},
		{"E2", paperdata.QueryCountText},
	}
	got := map[string]map[exec.Strategy]cost{}
	for _, e := range exps {
		got[e.name] = map[exec.Strategy]cost{}
		for _, s := range plans {
			c := run(db, e.text, s)
			got[e.name][s] = c
			t.Logf("%s %-12v fetches %8d  look-ups %7d", e.name, s, c.fetches, c.lookups)
		}
	}

	for _, e := range exps {
		g, b, d := got[e.name][exec.StrategyGroupBy], got[e.name][exec.StrategyDirectBatch], got[e.name][exec.StrategyDirect]
		if !(g.fetches < b.fetches && b.fetches < d.fetches) {
			t.Errorf("%s fetches: groupby %d, direct-batch %d, direct %d; want strictly increasing", e.name, g.fetches, b.fetches, d.fetches)
		}
		if !(g.lookups < b.lookups && b.lookups < d.lookups) {
			t.Errorf("%s value look-ups: groupby %d, direct-batch %d, direct %d; want strictly increasing", e.name, g.lookups, b.lookups, d.lookups)
		}
	}
	e1, e2 := got["E1"], got["E2"]
	// The count query gains more from groupby than the titles query:
	// compare direct/groupby fetch ratios by cross-multiplying.
	if e2[exec.StrategyDirect].fetches*e1[exec.StrategyGroupBy].fetches <= e1[exec.StrategyDirect].fetches*e2[exec.StrategyGroupBy].fetches {
		t.Errorf("E2 direct/groupby fetch ratio %d/%d is not above E1's %d/%d",
			e2[exec.StrategyDirect].fetches, e2[exec.StrategyGroupBy].fetches,
			e1[exec.StrategyDirect].fetches, e1[exec.StrategyGroupBy].fetches)
	}
	// groupby's count takes the author values ranked from the value
	// index and never reads a title: no value look-up at all.
	if g := e2[exec.StrategyGroupBy].lookups; g != 0 {
		t.Errorf("E2 groupby value look-ups = %d, want 0", g)
	}
	if g1, g2 := e1[exec.StrategyGroupBy].fetches, e2[exec.StrategyGroupBy].fetches; g2 >= g1 {
		t.Errorf("groupby fetches: E2 %d, E1 %d; want E2 below E1", g2, g1)
	}

	// Without a value index the paper's plan reads each author's value
	// from the heap once, to group by it — and still never a title.
	noVal, err := storage.CreateTemp(storage.Options{PageSize: pagestore.DefaultPageSize, PoolPages: benchPoolPages(articles), NoValueIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer noVal.Close()
	if _, err := dblpgen.GenerateToDB(noVal, dblpgen.Config{Articles: articles, Seed: 2002}); err != nil {
		t.Fatal(err)
	}
	if g := run(noVal, paperdata.QueryCountText, exec.StrategyGroupBy); g.lookups != uint64(len(authors)) {
		t.Errorf("E2 groupby without a value index: %d value look-ups, want %d (one per author element)", g.lookups, len(authors))
	} else {
		t.Logf("E2 groupby, no value index: fetches %8d  look-ups %7d", g.fetches, g.lookups)
	}
}
