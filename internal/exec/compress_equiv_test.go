package exec

import (
	"fmt"
	"reflect"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// buildEquivDB loads the shared equivalence corpus — the paper's
// sample database plus three generated DBLP fragments — into a fresh
// temp database with the given storage options.
func buildEquivDB(t *testing.T, opts storage.Options) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	for i, seed := range []int64{7, 11, 13} {
		root, _ := dblpgen.Generate(dblpgen.Config{Articles: 30, Seed: seed})
		if _, err := db.LoadDocument(fmt.Sprintf("dblp-%d.xml", i), root); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// collectOps accumulates the per-operator row/batch counters from a
// finished trace, keyed by span name.
func collectOps(d *obs.SpanData, into map[string]map[string]int64) {
	if len(d.Ops) > 0 {
		m := into[d.Name]
		if m == nil {
			m = map[string]int64{}
			into[d.Name] = m
		}
		for k, v := range d.Ops {
			m[k] += v
		}
	}
	for _, c := range d.Children {
		collectOps(c, into)
	}
}

// TestCompressedFormatEquivalence pins what flows through the executor
// over the compressed on-disk format: the posting blocks really pack
// several postings per index cell, and every corpus query answers with
// byte-identical trees, identical ExecStats and identical per-operator
// trace row counts at parallelism 1 and 4 — block decoding may only
// change where bytes live, never what the operators see.
func TestCompressedFormatEquivalence(t *testing.T) {
	db := buildEquivDB(t, storage.Options{PageSize: 2048, PoolPages: 512})

	info, err := db.SizeInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != "lz" || info.HeapPages == 0 || info.IndexPages == 0 ||
		info.HeapPages+info.IndexPages > info.TotalPages {
		t.Errorf("implausible size breakdown: %+v", info)
	}
	sn := pin(t, db)
	tags, err := sn.Tags()
	if err != nil {
		t.Fatal(err)
	}
	postings := 0
	for _, tag := range tags {
		ps, err := storage.Drain(sn.TagStream(tag))
		if err != nil {
			t.Fatal(err)
		}
		postings += len(ps)
	}
	if info.TagCells >= uint64(postings) {
		t.Errorf("tag index holds %d cells for %d postings: blocks are not packing", info.TagCells, postings)
	}

	type outcome struct {
		trees string
		stats ExecStats
		ops   map[string]map[string]int64
	}
	runOne := func(spec Spec, p int) outcome {
		t.Helper()
		db.ResetStats()
		tr := db.NewTracer("equiv")
		res, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: p, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		ops := map[string]map[string]int64{}
		collectOps(tr.Finish(), ops)
		return outcome{trees: serializeTrees(res.Trees), stats: res.Stats, ops: ops}
	}

	for _, q := range streamCorpus {
		_, _, spec := plansFor(t, q.src)
		want := runOne(spec, 1)
		if want.trees == "" {
			t.Errorf("%s: no result trees", q.name)
		}
		got := runOne(spec, 4)
		if got.trees != want.trees {
			t.Errorf("%s: trees differ between p=1 and p=4", q.name)
		}
		if got.stats != want.stats {
			t.Errorf("%s: stats %+v at p=4 vs %+v at p=1", q.name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.ops, want.ops) {
			t.Errorf("%s: operator counts differ\np=4 %v\np=1 %v", q.name, got.ops, want.ops)
		}
	}
}
