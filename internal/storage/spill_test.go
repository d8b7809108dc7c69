package storage

import (
	"fmt"
	"strings"
	"testing"

	"timber/internal/pagestore"
	"timber/internal/paperdata"
	"timber/internal/xmltree"
)

func TestSpillTreesRoundTrip(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("base", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	before := db.NumPages()

	trees := []*xmltree.Node{
		paperdata.SampleDatabase(),
		xmltree.E("TAX_prod_root",
			xmltree.E("doc_root", xmltree.Elem("author", "Jack")),
			xmltree.E("article", xmltree.Elem("title", "T")).WithAttr("k", "v"),
		),
		xmltree.Elem("leaf", "x"),
	}
	want := make([]*xmltree.Node, len(trees))
	for i, tr := range trees {
		want[i] = tr.Clone()
	}
	got, err := sn.SpillTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trees) {
		t.Fatalf("rebuilt %d trees", len(got))
	}
	for i := range got {
		if !xmltree.Equal(got[i], want[i]) {
			t.Errorf("tree %d mismatch:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if db.NumPages() != before {
		t.Errorf("temporary pages not released: %d -> %d", before, db.NumPages())
	}
	// The base data is untouched.
	posts, err := Drain(sn.TagStream("author"))
	if err != nil || len(posts) != 5 {
		t.Errorf("base data damaged: %d postings, %v", len(posts), err)
	}
}

func TestSpillTreesEmpty(t *testing.T) {
	db := testDB(t, Options{})
	sn := pin(t, db)
	got, err := sn.SpillTrees(nil)
	if err != nil || got != nil {
		t.Errorf("empty spill = %v, %v", got, err)
	}
}

func TestSpillChargesBufferPool(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("base", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	db.ResetStats()
	if _, err := sn.SpillTrees([]*xmltree.Node{paperdata.SampleDatabase()}); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Fetches == 0 {
		t.Error("spill should flow through the buffer pool")
	}
}

func TestBulkVsIncrementalLoadEquivalent(t *testing.T) {
	// Document 1 bulk-loads, document 2 inserts incrementally; both
	// must be fully queryable.
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("one", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocument("two", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	posts, err := Drain(sn.TagStream("author"))
	if err != nil || len(posts) != 10 {
		t.Fatalf("authors across bulk+incremental = %d, %v", len(posts), err)
	}
	vj, err := valuePostings(sn, "author", "Jack")
	if err != nil || len(vj) != 4 {
		t.Fatalf("Jack postings = %d, %v", len(vj), err)
	}
	for _, doc := range []xmltree.DocID{1, 2} {
		sub, err := sn.GetSubtree(xmltree.NodeID{Doc: doc, Start: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !xmltree.Equal(sub, paperdata.SampleDatabase()) {
			t.Errorf("doc %d round trip failed", doc)
		}
	}
}

// spillShapedTrees builds n trees four levels deep, with attributes,
// empty contents and a leaf text: one record run of a few dozen bytes
// per node, so a few hundred trees fill several pages.
func spillShapedTrees(n int) []*xmltree.Node {
	trees := make([]*xmltree.Node, n)
	for i := range trees {
		trees[i] = xmltree.E("r",
			xmltree.E("a",
				xmltree.E("b",
					xmltree.Elem("c", fmt.Sprintf("leaf text %d", i)).WithAttr("n", fmt.Sprint(i)),
					xmltree.E("d"),
				),
			),
			xmltree.Elem("e", ""),
		).WithAttr("k", "v")
	}
	return trees
}

// TestSpillTreesPagesAndPins checks the spill's page accounting over a
// multi-page run: the trees round-trip, every page it allocates is
// freed (and counted in spool_pages_freed), it fetches each page once
// to write it and once to read it back, and it leaves nothing pinned —
// after success and after a record too large for a page.
func TestSpillTreesPagesAndPins(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("base", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	before, freedBefore := db.st.Stats(), db.ing.spoolPagesFreed.Load()
	trees := spillShapedTrees(600)
	want := make([]*xmltree.Node, len(trees))
	for i, tr := range trees {
		want[i] = tr.Clone()
	}
	got, err := sn.SpillTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rebuilt %d trees, want %d", len(got), len(want))
	}
	for i := range got {
		if !xmltree.Equal(got[i], want[i]) {
			t.Fatalf("tree %d mismatch:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	after := db.st.Stats()
	allocated := after.Allocations - before.Allocations
	if allocated < 3 {
		t.Fatalf("spill allocated %d pages, want at least 3", allocated)
	}
	if freed := after.FreedPages - before.FreedPages; freed != allocated {
		t.Errorf("spill allocated %d pages, freed %d", allocated, freed)
	}
	if freed := db.ing.spoolPagesFreed.Load() - freedBefore; freed != allocated {
		t.Errorf("spool_pages_freed grew by %d, spill allocated %d", freed, allocated)
	}
	// One fetch of the first page to write it (later pages are written
	// while pinned from Allocate), one per page to read back.
	if fetches := after.Fetches - before.Fetches; fetches != allocated+1 {
		t.Errorf("spill fetched %d pages for %d allocated, want %d", fetches, allocated, allocated+1)
	}
	if err := db.DropCache(); err != nil {
		t.Errorf("pages left pinned after a spill: %v", err)
	}

	// A record over page capacity fails the spill after some pages are
	// written; they are freed and nothing stays pinned.
	before = db.st.Stats()
	pages := db.NumPages()
	bad := spillShapedTrees(600)
	bad[400].Append(xmltree.Elem("huge", strings.Repeat("x", pagestore.MaxRecord(db.st.PageSize()))))
	if _, err := sn.SpillTrees(bad); err == nil {
		t.Fatal("spill of an oversized record succeeded")
	}
	after = db.st.Stats()
	if allocated, freed := after.Allocations-before.Allocations, after.FreedPages-before.FreedPages; allocated < 2 || freed != allocated {
		t.Errorf("failed spill allocated %d pages, freed %d", allocated, freed)
	}
	if db.NumPages() != pages {
		t.Errorf("failed spill grew the file: %d -> %d pages", pages, db.NumPages())
	}
	if err := db.DropCache(); err != nil {
		t.Errorf("pages left pinned after a failed spill: %v", err)
	}
}

// e1ResultTrees builds the shape of E1's answer at 12 000 articles:
// 2 432 <authorpubs> trees holding 28 762 titles between them, 33 626
// nodes in all.
func e1ResultTrees() []*xmltree.Node {
	const groups, titles = 2432, 28762
	trees := make([]*xmltree.Node, groups)
	k := 0
	for g := range trees {
		tr := xmltree.E("authorpubs", xmltree.Elem("author", fmt.Sprintf("Author %05d", g)))
		n := titles / groups
		if g < titles%groups {
			n++
		}
		for ; n > 0; n-- {
			tr.Append(xmltree.Elem("title", fmt.Sprintf("Grouping Structural Joins in XML Databases %d", k)))
			k++
		}
		trees[g] = tr
	}
	return trees
}

// BenchmarkSpillTrees times the result spill of E1's answer (see
// e1ResultTrees) through a pool that holds it, and reports the
// buffer-pool fetches per spill.
func BenchmarkSpillTrees(b *testing.B) {
	db, err := CreateTemp(Options{PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	sn := db.Snapshot()
	b.Cleanup(func() { sn.Close() })
	trees := e1ResultTrees()
	b.ReportAllocs()
	b.ResetTimer()
	start := db.st.Stats().Fetches
	for i := 0; i < b.N; i++ {
		out, err := sn.SpillTrees(trees)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(trees) {
			b.Fatalf("rebuilt %d trees", len(out))
		}
	}
	b.ReportMetric(float64(db.st.Stats().Fetches-start)/float64(b.N), "fetches/op")
}
