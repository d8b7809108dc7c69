package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"timber/internal/paperdata"
	"timber/internal/xmltree"
)

func testDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.PageSize == 0 {
		opts.PageSize = 512
	}
	if opts.PoolPages == 0 {
		opts.PoolPages = 128
	}
	db, err := CreateTemp(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return db
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*NodeRecord{
		{
			Interval:    xmltree.Interval{Doc: 1, Start: 3, End: 8, Level: 2},
			ParentStart: 2,
			Tag:         "article",
			Content:     "some content",
			Attrs:       []xmltree.Attr{{Name: "id", Value: "a1"}, {Name: "lang", Value: "en"}},
		},
		{Interval: xmltree.Interval{Doc: 9, Start: 1, End: 2}, Tag: "r"},
		{Interval: xmltree.Interval{Doc: 1, Start: 1, End: 100}, Tag: "x", Content: strings.Repeat("y", 300)},
	}
	for i, r := range recs {
		got, err := decodeRecordCompact(encodeRecordCompact(r))
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("rec %d round trip:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

func TestRecordDecodeCorrupt(t *testing.T) {
	good := encodeRecordCompact(&NodeRecord{Tag: "a", Content: "b", Attrs: []xmltree.Attr{{Name: "n", Value: "v"}}})
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeRecordCompact(good[:cut]); err == nil {
			t.Errorf("decode of %d-byte prefix should fail", cut)
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	prop := func(doc uint32, start, end uint32, level uint16, tag, content string, an, av string) bool {
		if end < start {
			start, end = end, start // intervals never end before they start
		}
		r := &NodeRecord{
			Interval: xmltree.Interval{Doc: xmltree.DocID(doc), Start: start, End: end, Level: level},
			Tag:      tag, Content: content,
		}
		if an != "" {
			r.Attrs = []xmltree.Attr{{Name: an, Value: av}}
		}
		if len(tag) > 1000 || len(content) > 5000 {
			return true // outside record bounds by construction elsewhere
		}
		got, err := decodeRecordCompact(encodeRecordCompact(r))
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoadAndGetNode(t *testing.T) {
	db := testDB(t, Options{})
	root := paperdata.SampleDatabase()
	doc, err := db.LoadDocument("bib.xml", root)
	if err != nil {
		t.Fatal(err)
	}
	if doc != 1 {
		t.Errorf("first doc ID = %d, want 1", doc)
	}
	// Every node in the in-memory tree must be retrievable by ID with
	// identical fields.
	var checked int
	root.Walk(func(n *xmltree.Node) bool {
		rec, err := db.GetNode(n.Interval.ID())
		if err != nil {
			t.Fatalf("GetNode(%v): %v", n.Interval.ID(), err)
		}
		if rec.Tag != n.Tag || rec.Content != n.Content || rec.Interval != n.Interval {
			t.Errorf("node %v: got %+v", n.Interval.ID(), rec)
		}
		if n.Parent != nil && rec.ParentStart != n.Parent.Interval.Start {
			t.Errorf("node %v parent = %d, want %d", n.Interval.ID(), rec.ParentStart, n.Parent.Interval.Start)
		}
		checked++
		return true
	})
	if checked != root.Size() {
		t.Errorf("checked %d nodes, tree has %d", checked, root.Size())
	}
	if _, err := db.GetNode(xmltree.NodeID{Doc: 1, Start: 9999}); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("bogus GetNode err = %v", err)
	}
}

func TestTagPostingsSortedAndComplete(t *testing.T) {
	db := testDB(t, Options{})
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	posts, err := db.TagPostings("author")
	if err != nil {
		t.Fatal(err)
	}
	want := root.Find("author")
	if len(posts) != len(want) {
		t.Fatalf("got %d author postings, want %d", len(posts), len(want))
	}
	for i, p := range posts {
		if p.Interval != want[i].Interval {
			t.Errorf("posting %d interval = %+v, want %+v", i, p.Interval, want[i].Interval)
		}
		if i > 0 && !posts[i-1].Interval.Before(p.Interval) {
			t.Errorf("postings not in document order at %d", i)
		}
	}
	empty, err := db.TagPostings("nonexistent")
	if err != nil || len(empty) != 0 {
		t.Errorf("nonexistent tag: %v, %v", empty, err)
	}
}

func TestTagPostingsNoPrefixBleed(t *testing.T) {
	db := testDB(t, Options{})
	root := xmltree.E("r", xmltree.Elem("auth", "x"), xmltree.Elem("author", "y"), xmltree.Elem("authors", "z"))
	if _, err := db.LoadDocument("d", root); err != nil {
		t.Fatal(err)
	}
	posts, err := db.TagPostings("author")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 {
		t.Errorf("author postings = %d, want 1 (prefix bleed from auth/authors?)", len(posts))
	}
}

func TestValuePostings(t *testing.T) {
	db := testDB(t, Options{})
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	posts, err := db.ValuePostings("author", "Jack")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 2 {
		t.Fatalf("Jack postings = %d, want 2", len(posts))
	}
	for _, p := range posts {
		rec, err := db.GetNodeAt(p.RID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Tag != "author" || rec.Content != "Jack" {
			t.Errorf("posting resolves to %+v", rec)
		}
	}
	if got, _ := db.ValuePostings("author", "Nobody"); len(got) != 0 {
		t.Errorf("Nobody postings = %d", len(got))
	}
	if _, err := db.ValuePostings("author", strings.Repeat("x", maxIndexedContent+1)); err == nil {
		t.Error("overlong content should be rejected")
	}
}

func TestNoValueIndex(t *testing.T) {
	db := testDB(t, Options{NoValueIndex: true})
	if _, err := db.LoadDocument("d", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if db.HasValueIndex() {
		t.Error("HasValueIndex should be false")
	}
	if _, err := db.ValuePostings("author", "Jack"); err == nil {
		t.Error("ValuePostings without index should fail")
	}
	// Tag postings still work.
	posts, err := db.TagPostings("author")
	if err != nil || len(posts) != 5 {
		t.Errorf("TagPostings = %d, %v", len(posts), err)
	}
}

func TestContent(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("d", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	posts, err := db.TagPostings("title")
	if err != nil {
		t.Fatal(err)
	}
	var titles []string
	for _, p := range posts {
		c, err := db.Content(p)
		if err != nil {
			t.Fatal(err)
		}
		titles = append(titles, c)
	}
	want := []string{"Querying XML", "XML and the Web", "Hack HTML"}
	if !reflect.DeepEqual(titles, want) {
		t.Errorf("titles = %v, want %v", titles, want)
	}
}

func TestGetSubtree(t *testing.T) {
	db := testDB(t, Options{})
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	// Whole document round trip.
	got, err := db.GetSubtree(root.Interval.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, root) {
		t.Errorf("document round trip mismatch:\n got %s\nwant %s", got, root)
	}
	// Single article subtree.
	art := root.Children[1]
	sub, err := db.GetSubtree(art.Interval.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(sub, art) {
		t.Errorf("article subtree mismatch: %s", sub)
	}
	// Leaf subtree.
	leaf := art.Children[0]
	lsub, err := db.GetSubtree(leaf.Interval.ID())
	if err != nil || !xmltree.Equal(lsub, leaf) {
		t.Errorf("leaf subtree: %v %v", lsub, err)
	}
}

func TestGetSubtreeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := CreateTemp(Options{PageSize: 512, PoolPages: 64})
		if err != nil {
			return false
		}
		defer db.Close()
		root := randomLabeledTree(rng, 40)
		if _, err := db.LoadDocument("d", root); err != nil {
			return false
		}
		// Every subtree must round trip.
		ok := true
		root.Walk(func(n *xmltree.Node) bool {
			got, err := db.GetSubtree(n.Interval.ID())
			if err != nil || !xmltree.Equal(got, n) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func randomLabeledTree(rng *rand.Rand, n int) *xmltree.Node {
	tags := []string{"a", "b", "c", "d"}
	root := xmltree.E("root")
	nodes := []*xmltree.Node{root}
	for i := 1; i < n; i++ {
		parent := nodes[rng.Intn(len(nodes))]
		child := xmltree.Elem(tags[rng.Intn(len(tags))], fmt.Sprintf("v%d", rng.Intn(10)))
		parent.Append(child)
		nodes = append(nodes, child)
	}
	return root
}

func TestScanDocument(t *testing.T) {
	db := testDB(t, Options{})
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	var count int
	var prev uint32
	err := db.ScanDocument(1, func(rec *NodeRecord) error {
		if rec.Interval.Start <= prev {
			t.Error("scan out of document order")
		}
		prev = rec.Interval.Start
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != root.Size() {
		t.Errorf("scanned %d nodes, want %d", count, root.Size())
	}
	// Error propagation from fn.
	sentinel := errors.New("stop")
	err = db.ScanDocument(1, func(*NodeRecord) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("scan error = %v, want sentinel", err)
	}
}

func TestMultipleDocuments(t *testing.T) {
	db := testDB(t, Options{})
	d1, err := db.LoadDocument("one", paperdata.SampleDatabase())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := db.LoadDocument("two", paperdata.TransactionArticles())
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("duplicate doc IDs")
	}
	docs := db.Documents()
	if len(docs) != 2 || docs[0].Name != "one" || docs[1].Name != "two" {
		t.Errorf("catalog = %+v", docs)
	}
	if docs[0].NodeCount == 0 || docs[1].NodeCount == 0 {
		t.Error("node counts missing")
	}
	if _, ok := db.DocumentByName("two"); !ok {
		t.Error("DocumentByName(two) missing")
	}
	if _, ok := db.DocumentByName("none"); ok {
		t.Error("DocumentByName(none) should miss")
	}
	// Postings stay per-document-disjoint but are returned merged by tag.
	posts, err := db.TagPostings("article")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 7 { // 3 in sample + 4 in transactions
		t.Errorf("article postings = %d, want 7", len(posts))
	}
}

func TestLoadXML(t *testing.T) {
	db := testDB(t, Options{})
	doc, err := db.LoadXML("x", strings.NewReader("<r><a>1</a><a>2</a></r>"))
	if err != nil {
		t.Fatal(err)
	}
	posts, err := db.TagPostings("a")
	if err != nil || len(posts) != 2 {
		t.Fatalf("a postings = %d, %v", len(posts), err)
	}
	if posts[0].Interval.Doc != doc {
		t.Error("posting in wrong document")
	}
	if _, err := db.LoadXML("bad", strings.NewReader("<r>")); err == nil {
		t.Error("bad XML should fail to load")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bib.db")
	db, err := Create(path, Options{PageSize: 512, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{PageSize: 512, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	docs := db2.Documents()
	if len(docs) != 1 || docs[0].Name != "bib.xml" {
		t.Fatalf("catalog after reopen = %+v", docs)
	}
	got, err := db2.GetSubtree(xmltree.NodeID{Doc: 1, Start: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(got, root) {
		t.Error("document differs after reopen")
	}
	posts, err := db2.TagPostings("author")
	if err != nil || len(posts) != 5 {
		t.Errorf("author postings after reopen = %d, %v", len(posts), err)
	}
	if !db2.HasValueIndex() {
		t.Error("value index flag lost on reopen")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.db")
	// A file of zeroed pages has no metadata magic.
	if err := os.WriteFile(path, make([]byte, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{PageSize: 512}); err == nil {
		t.Error("garbage file should be rejected")
	}
	if _, err := Open(filepath.Join(dir, "missing"), Options{PageSize: 512}); err == nil {
		t.Error("missing file should be rejected")
	}
}

func TestOpenRejectsWrongPageSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ps.db")
	db, err := Create(path, Options{PageSize: 1024, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// 1024 divides 2048, so the pagestore opens — the metadata check
	// must still catch the mismatch.
	if _, err := Open(path, Options{PageSize: 512, PoolPages: 64}); err == nil {
		t.Error("page size mismatch should be rejected")
	}
	db2, err := Open(path, Options{PageSize: 1024, PoolPages: 64})
	if err != nil {
		t.Fatalf("matching page size: %v", err)
	}
	db2.Close()
}

func TestTags(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("d", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	tags, err := db.Tags()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"article", "author", "doc_root", "publisher", "title", "year"}
	if !reflect.DeepEqual(tags, want) {
		t.Errorf("tags = %v, want %v", tags, want)
	}
}

// TestConcurrentReaders exercises the read-only access paths from
// several goroutines at once: index scans, record fetches and subtree
// reconstruction are all safe concurrently (writes and temp-page use
// are not, by design).
func TestConcurrentReaders(t *testing.T) {
	db := testDB(t, Options{})
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 6)
	for g := 0; g < 6; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				switch (g + i) % 3 {
				case 0:
					posts, err := db.TagPostings("author")
					if err != nil || len(posts) != 5 {
						errc <- fmt.Errorf("postings: %d, %v", len(posts), err)
						return
					}
				case 1:
					rec, err := db.GetNode(xmltree.NodeID{Doc: 1, Start: 1})
					if err != nil || rec.Tag != "doc_root" {
						errc <- fmt.Errorf("get node: %v, %v", rec, err)
						return
					}
				default:
					sub, err := db.GetSubtree(xmltree.NodeID{Doc: 1, Start: 2})
					if err != nil || sub.Tag != "article" {
						errc <- fmt.Errorf("subtree: %v, %v", sub, err)
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 6; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func TestStatsCountLookups(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("d", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, err := db.GetNode(xmltree.NodeID{Doc: 1, Start: 1}); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.Fetches == 0 {
		t.Error("GetNode should cost buffer fetches")
	}
}
