package storage

import (
	"reflect"
	"testing"

	"timber/internal/btree"
	"timber/internal/paperdata"
	"timber/internal/xmltree"
)

// indexPostings is the reference decode of one index key prefix: every
// cell's block, in key order, through ScanPrefix.
func indexPostings(t *testing.T, tree *btree.Tree, prefix []byte) []Posting {
	t.Helper()
	var out []Posting
	var inner error
	if err := tree.ScanPrefix(prefix, func(k, v []byte) bool {
		out, inner = appendBlockPostings(out, k[len(k)-8:], v)
		return inner == nil
	}); err != nil {
		t.Fatal(err)
	}
	if inner != nil {
		t.Fatal(inner)
	}
	return out
}

// blocks reads a stream block by block to the end and closes it,
// checking that no block is empty.
func blocks(t *testing.T, s *PostingStream) []Posting {
	t.Helper()
	var out []Posting
	for {
		b, ok := s.NextBlock()
		if !ok {
			break
		}
		if len(b) == 0 {
			t.Fatal("stream returned an empty block")
		}
		out = append(out, b...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTagCursorMatchesTagPostings pins the posting stream against the
// index: reading a TagStream block by block, or draining it, yields
// exactly the decoded cells of the tag's key prefix, and the
// per-document form yields exactly that document's contiguous segment.
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
		want := indexPostings(t, sn.tagIdx, tagPrefix(tag))
		if got := blocks(t, sn.TagStream(tag)); !reflect.DeepEqual(got, want) {
			t.Errorf("tag %q: stream yielded %d postings, index %d", tag, len(got), len(want))
		}
		got, err := Drain(sn.TagStream(tag))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("tag %q: Drain yielded %d postings, index %d", tag, len(got), len(want))
		}

		// Per-document segments concatenate back to the full list.
		var byDoc []Posting
		for d := 1; d <= len(docs); d++ {
			for _, p := range blocks(t, sn.TagDocStream(tag, xmltree.DocID(d))) {
				if p.Interval.Doc != xmltree.DocID(d) {
					t.Fatalf("doc stream for %d yielded posting of doc %d", d, p.Interval.Doc)
				}
				byDoc = append(byDoc, p)
			}
		}
		if !reflect.DeepEqual(byDoc, want) {
			t.Errorf("tag %q: per-doc streams yielded %d postings, want %d", tag, len(byDoc), len(want))
		}
	}
}

func roots(i int) string {
	return []string{"bib.xml", "tods.xml"}[i]
}

// TestTagCursorEarlyClose verifies an abandoned stream releases its
// pinned index page (DropCache would fail otherwise).
func TestTagCursorEarlyClose(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := pin(t, db)
	s := sn.TagStream("author")
	if _, ok := s.NextBlock(); !ok {
		t.Fatal("no first block")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatalf("drop cache after stream close: %v", err)
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
	ps, err := Drain(sn.TagStream("title"))
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
