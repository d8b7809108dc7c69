package storage

import (
	"reflect"
	"testing"

	"timber/internal/paperdata"
	"timber/internal/xmltree"
)

// TestTagCursorMatchesTagPostings pins the streaming scan against the
// materializing one: pulling a TagCursor to exhaustion yields exactly
// the TagPostings slice, and the per-document variant yields exactly
// that document's contiguous segment.
func TestTagCursorMatchesTagPostings(t *testing.T) {
	db := testDB(t, Options{})
	docs := []*xmltree.Node{paperdata.SampleDatabase(), paperdata.TransactionArticles()}
	for i, root := range docs {
		if _, err := db.LoadDocument(roots(i), root); err != nil {
			t.Fatal(err)
		}
	}
	sn := pin(t, db)
	for _, tag := range []string{"author", "article", "title", "nonexistent"} {
		want, err := sn.TagPostings(tag)
		if err != nil {
			t.Fatal(err)
		}
		c := sn.OpenTagCursor(tag)
		var got []Posting
		for {
			p, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, p)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("cursor close (%s): %v", tag, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tag %q: cursor yielded %d postings, TagPostings %d", tag, len(got), len(want))
		}

		// Per-document segments concatenate back to the full list.
		var byDoc []Posting
		for d := 1; d <= len(docs); d++ {
			dc := sn.OpenTagDocCursor(tag, xmltree.DocID(d))
			for {
				p, ok := dc.Next()
				if !ok {
					break
				}
				if p.Interval.Doc != xmltree.DocID(d) {
					t.Fatalf("doc cursor for %d yielded posting of doc %d", d, p.Interval.Doc)
				}
				byDoc = append(byDoc, p)
			}
			if err := dc.Close(); err != nil {
				t.Fatalf("doc cursor close: %v", err)
			}
		}
		if !reflect.DeepEqual(byDoc, want) {
			t.Errorf("tag %q: per-doc cursors yielded %d postings, want %d", tag, len(byDoc), len(want))
		}
	}
}

func roots(i int) string {
	return []string{"bib.xml", "tods.xml"}[i]
}

// TestTagCursorEarlyClose verifies an abandoned cursor releases its pin
// (DropCache would fail otherwise).
func TestTagCursorEarlyClose(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	c := sn.OpenTagCursor("author")
	if _, ok := c.Next(); !ok {
		t.Fatal("no first posting")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatalf("drop cache after cursor close: %v", err)
	}
}

// TestContentsBatch checks the batched late-materialization path
// returns the same values as per-posting Content, including when a
// batch crosses heap pages, and that same-page clustering reduces
// fetches.
func TestContentsBatch(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	ps, err := sn.TagPostings("title")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no title postings")
	}
	want := make([]string, len(ps))
	for i, p := range ps {
		if want[i], err = sn.Content(p); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Stats().Fetches
	got := make([]string, len(ps))
	if err := sn.ContentsBatch(ps, got); err != nil {
		t.Fatal(err)
	}
	batchFetches := db.Stats().Fetches - before
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentsBatch = %v, want %v", got, want)
	}
	if batchFetches > uint64(len(ps)) {
		t.Errorf("batched fetches = %d, more than %d per-posting fetches", batchFetches, len(ps))
	}
}

// TestSpoolRoundTrip writes runs through the spill region, reads them
// back with cursors, and verifies the region is reclaimed.
func TestSpoolRoundTrip(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	pagesBefore := db.NumPages()
	sp := sn.NewSpool()
	var runs []*SpoolRun
	for r := 0; r < 3; r++ {
		run, err := sp.NewRun()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			rec := []byte{byte(r), byte(i), byte(i >> 8), 'x', 'y'}
			if err := run.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		runs = append(runs, run)
	}
	for r, run := range runs {
		c := run.Open()
		n := 0
		for {
			rec, ok := c.Next()
			if !ok {
				break
			}
			if len(rec) != 5 || rec[0] != byte(r) || rec[1] != byte(n) {
				t.Fatalf("run %d rec %d corrupt: %v", r, n, rec)
			}
			n++
		}
		if err := c.Close(); err != nil {
			t.Fatalf("run %d cursor: %v", r, err)
		}
		if n != 200 {
			t.Fatalf("run %d yielded %d records, want 200", r, n)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatalf("spool close: %v", err)
	}
	if got := db.NumPages(); got != pagesBefore {
		t.Errorf("pages after spool = %d, want %d (region not reclaimed)", got, pagesBefore)
	}
	// Region free again: a result spill must work immediately after.
	trees, err := sn.SpillTrees([]*xmltree.Node{xmltree.Elem("t", "v")})
	if err != nil || len(trees) != 1 {
		t.Fatalf("spill after spool: %v, %v", trees, err)
	}
}
