package exec

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// The streaming iterator executor must be invisible: for every corpus
// query, every parallelism, every batch size and with or without sort
// spilling, groupByExec produces byte-identical trees across all arms,
// the same rows as the logical evaluator on the rewritten plan, and
// exactly the golden ExecStats below. They are what the materializing
// groupby executor it replaced recorded on the same databases, less
// the grouping-value look-ups: grouping values now come ranked from
// the value index.

// streamCorpus is every groupby query shape the package tests cover:
// titles, count, ascending and descending ordering lists. multi and
// spill are the golden ExecStats on multiDocDB(7, 11, 13) and on
// TestStreamingSpillEquivalence's larger-than-pool database.
var streamCorpus = []struct {
	name         string
	src          string
	multi, spill ExecStats
}{
	{"titles", query1Src, ExecStats{384, 198, 0, 18}, ExecStats{1021, 541, 0, 31}},
	{"count", queryCountSrc, ExecStats{384, 0, 0, 18}, ExecStats{1021, 0, 0, 31}},
	{"ordered-desc", queryOrderedSrc, ExecStats{477, 291, 0, 18}, ExecStats{1261, 781, 0, 31}},
	{"ordered-year", queryOrderedByYearSrc, ExecStats{477, 291, 0, 18}, ExecStats{1261, 781, 0, 31}},
}

// assertStreamEqual runs every streaming arm (parallelism × batch size ×
// sort spilling) and checks each against the logical plan's sorted
// rows, the first arm's bytes and the golden stats.
func assertStreamEqual(t *testing.T, db *storage.DB, src, label string, want ExecStats) {
	t.Helper()
	_, rewritten, spec := plansFor(t, src)
	logical, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatalf("%s: logical: %v", label, err)
	}
	wantRows := sorted(rows(logical.Trees))
	var wantBytes string
	for _, p := range []int{1, 4} {
		for _, bs := range []int{0, 1, 3} {
			for _, mem := range []int{0, 16} {
				arm := fmt.Sprintf("%s p=%d bs=%d sortmem=%d", label, p, bs, mem)
				got, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: p, BatchSize: bs, SortMemRows: mem})
				if err != nil {
					t.Fatalf("%s: %v", arm, err)
				}
				if gotRows := sorted(rows(got.Trees)); !reflect.DeepEqual(gotRows, wantRows) {
					t.Errorf("%s: rows differ from the logical plan\ngot  %v\nwant %v", arm, gotRows, wantRows)
				}
				gotBytes := serializeTrees(got.Trees)
				if wantBytes == "" {
					wantBytes = gotBytes
				} else if gotBytes != wantBytes {
					t.Errorf("%s: trees differ from the first arm\ngot  %s\nwant %s", arm, gotBytes, wantBytes)
				}
				if got.Stats != want {
					t.Errorf("%s: stats = %+v, want %+v", arm, got.Stats, want)
				}
			}
		}
	}
}

func TestStreamingMatchesMaterializedCorpus(t *testing.T) {
	db := multiDocDB(t, 7, 11, 13)
	for _, q := range streamCorpus {
		assertStreamEqual(t, db, q.src, q.name, q.multi)
	}
}

func TestStreamingMatchesMaterializedDescendant(t *testing.T) {
	golden := []ExecStats{{12, 4, 0, 3}, {9, 3, 0, 2}, {15, 5, 0, 3}, {9, 3, 0, 2}}
	for i, want := range golden {
		seed := int64(i + 1)
		db, _ := deepDB(t, seed)
		assertStreamEqual(t, db, queryDescSrc, fmt.Sprintf("descendant seed=%d", seed), want)
		db.Close()
	}
}

func TestStreamingMatchesMaterializedTwoStepPath(t *testing.T) {
	src := `
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN
<instpubs>
  {$i}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $i = $b/author/institution
    RETURN $b/title
  }
</instpubs>`
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root",
		e("article", e("author", el("institution", "UM")).Text("Jack"), el("title", "T1")),
		e("article", e("author", el("institution", "UBC")).Text("Jill"), el("title", "T2")),
		e("article", e("author", el("institution", "UM")).Text("Jag"), el("title", "T3")),
	)
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	assertStreamEqual(t, db, src, "institution", ExecStats{9, 3, 0, 2})
}

// TestStreamingSpillEquivalence is the blocking-operator spill
// regression: a GROUPBY over a collection larger than the buffer pool,
// with a sort budget small enough to force many spilled runs, must be
// byte-identical to the in-memory sort, agree with the logical plan and
// keep the golden stats — and must give every temporary page back.
func TestStreamingSpillEquivalence(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 4; i++ {
		root, _ := dblpgen.Generate(dblpgen.Config{Articles: 60, Seed: int64(100 + i)})
		if _, err := db.LoadDocument(fmt.Sprintf("dblp-%d.xml", i), root); err != nil {
			t.Fatal(err)
		}
	}
	if pages, pool := db.NumPages(), uint32(32); pages <= pool {
		t.Fatalf("collection (%d pages) does not exceed the pool (%d pages)", pages, pool)
	}
	for _, q := range streamCorpus {
		_, rewritten, spec := plansFor(t, q.src)
		logical, err := ExecLogical(db, rewritten)
		if err != nil {
			t.Fatal(err)
		}
		inMem, err := runAs(db, StrategyGroupBy, spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := db.NumPages()
		// Each spilled run pins one pool frame during the k-way merge,
		// so the budget is chosen to yield a handful of runs, not one
		// per few rows.
		spilled, err := runAs(db, StrategyGroupBy, spec, Options{SortMemRows: 64, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		if after := db.NumPages(); after != before {
			t.Errorf("%s: spill leaked pages: %d -> %d", q.name, before, after)
		}
		if got, want := sorted(rows(inMem.Trees)), sorted(rows(logical.Trees)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: in-memory streaming rows differ from the logical plan\ngot  %v\nwant %v", q.name, got, want)
		}
		if serializeTrees(spilled.Trees) != serializeTrees(inMem.Trees) {
			t.Errorf("%s: spilled streaming differs from in-memory", q.name)
		}
		if inMem.Stats != q.spill || spilled.Stats != q.spill {
			t.Errorf("%s: stats diverge: golden=%+v mem=%+v spill=%+v", q.name, q.spill, inMem.Stats, spilled.Stats)
		}
	}
}

// TestMaterializeLimit pins the -maxmem backend: a budget too small
// for the output fails with ErrMaterializeLimit and no result — also
// when only the titles' flush exceeds it, the group names having been
// charged as their groups opened; a budget of exactly the output's
// content bytes or more changes nothing; and a count query fits in a
// budget far below its title volume because it never materializes
// title values.
func TestMaterializeLimit(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	res, err := runAs(db, StrategyGroupBy, spec, Options{MaxMaterializeBytes: 1})
	if !errors.Is(err, ErrMaterializeLimit) {
		t.Fatalf("limit 1: err = %v, want ErrMaterializeLimit", err)
	}
	if res != nil {
		t.Fatalf("limit 1: partial result returned: %+v", res)
	}
	unlimited, err := runAs(db, StrategyGroupBy, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := runAs(db, StrategyGroupBy, spec, Options{MaxMaterializeBytes: 1 << 20})
	if err != nil {
		t.Fatalf("generous limit: %v", err)
	}
	if serializeTrees(capped.Trees) != serializeTrees(unlimited.Trees) {
		t.Error("generous limit changed the result")
	}
	var names, total int64
	for _, tr := range unlimited.Trees {
		tr.Walk(func(n *xmltree.Node) bool {
			total += int64(len(n.Content))
			return true
		})
		names += int64(len(tr.Children[0].Content))
	}
	res, err = runAs(db, StrategyGroupBy, spec, Options{MaxMaterializeBytes: names + 1})
	if !errors.Is(err, ErrMaterializeLimit) || res != nil {
		t.Fatalf("budget of the group names + 1: result %v, err = %v; want ErrMaterializeLimit and no result", res, err)
	}
	if err := db.DropCache(); err != nil {
		t.Errorf("failed flush left pages pinned: %v", err)
	}
	if _, err := runAs(db, StrategyGroupBy, spec, Options{MaxMaterializeBytes: total}); err != nil {
		t.Errorf("budget of exactly the output's %d content bytes: %v", total, err)
	}

	// The count query's only materialized bytes are the three author
	// keys — a budget far below the title volume suffices.
	_, _, countSpec := plansFor(t, queryCountSrc)
	if _, err := runAs(db, StrategyGroupBy, countSpec, Options{MaxMaterializeBytes: 16}); err != nil {
		t.Errorf("count under tight budget: %v", err)
	}
}
