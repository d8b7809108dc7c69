package exec

import (
	"reflect"
	"testing"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

func TestDirectMaterializedSample(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	res, err := directMaterialized(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(res.Trees); !reflect.DeepEqual(got, wantSample) {
		t.Errorf("materialized result = %v, want %v", got, wantSample)
	}
	// The naive plan materializes full article replicas: value lookups
	// far exceed the witness count.
	if res.Stats.ValueLookups <= 10 {
		t.Errorf("value lookups = %d; replication should dominate", res.Stats.ValueLookups)
	}
	if res.Stats.LocatorProbes == 0 {
		t.Error("subtree materialization resolves through the locator")
	}
}

func TestDirectMaterializedCount(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, queryCountSrc)
	res, err := directMaterialized(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Jack:2", "John:2", "Jill:1"}
	if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("materialized count = %v, want %v", got, want)
	}
}

func TestDirectMaterializedInstitution(t *testing.T) {
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
	_, _, spec := plansFor(t, src)
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
	res, err := directMaterialized(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"UM:T1,T3", "UBC:T2"} // first-occurrence order
	if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("institution materialized = %v, want %v", got, want)
	}
}

// TestStructuralDedupCaveat pins the naive plan's second semantic
// boundary (alongside opt.TestRewriteDuplicateAuthorCaveat): its
// "duplicate elimination based on articles" is structural, so two
// char-identical articles by the same author collapse to one in the
// naive/direct-materialized result, while witness-based plans (the
// groupby plans, and the ID-based direct baselines) keep both. DBLP has
// no such duplicates; this test documents the behaviour rather than
// hiding it.
func TestStructuralDedupCaveat(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root",
		e("article", el("author", "A"), el("title", "Same")),
		e("article", el("author", "A"), el("title", "Same")),
	)
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	naive, rewritten, spec := plansFor(t, query1Src)

	ln, err := ExecLogical(db, naive)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(ln.Trees); !reflect.DeepEqual(got, []string{"A:Same"}) {
		t.Errorf("logical naive = %v, want structural dedup", got)
	}
	dm, err := directMaterialized(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(dm.Trees); !reflect.DeepEqual(got, []string{"A:Same"}) {
		t.Errorf("direct materialized = %v, want structural dedup", got)
	}
	lr, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(lr.Trees); !reflect.DeepEqual(got, []string{"A:Same,Same"}) {
		t.Errorf("rewritten = %v, want both witnesses", got)
	}
	gb, err := groupByExec(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(gb.Trees); !reflect.DeepEqual(got, []string{"A:Same,Same"}) {
		t.Errorf("groupby = %v, want both witnesses", got)
	}
}

func TestExecutorsNoTemporaryPageLeak(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	before := db.NumPages()
	for i := 0; i < 3; i++ {
		if _, err := directMaterialized(db, spec, Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := groupByExec(db, spec, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if after := db.NumPages(); after != before {
		t.Errorf("temporary pages leaked: %d -> %d", before, after)
	}
}

func TestExecutorsOnClosedDB(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocument("d", xmltree.E("doc_root",
		xmltree.E("article", xmltree.Elem("author", "A"), xmltree.Elem("title", "T")))); err != nil {
		t.Fatal(err)
	}
	_, _, spec := plansFor(t, query1Src)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Every executor must surface the storage failure, not panic.
	if _, err := groupByExec(db, spec, Options{}); err == nil {
		t.Error("GroupByExec on closed db should fail")
	}
	if _, err := directMaterialized(db, spec, Options{}); err == nil {
		t.Error("DirectMaterialized on closed db should fail")
	}
	if _, err := directBatch(db, spec, Options{}); err == nil {
		t.Error("DirectBatch on closed db should fail")
	}
}
