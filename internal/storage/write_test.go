package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"timber/internal/btree"
	"timber/internal/paperdata"
	"timber/internal/xmltree"
)

// blockDoc is a document whose tag index run for "p" and value index
// run for ("p", "same") are n postings each, beside n/5 "q" nodes with
// distinct contents.
func blockDoc(n int) *xmltree.Node {
	root := xmltree.E("r")
	for i := 0; i < n; i++ {
		root.Append(xmltree.Elem("p", "same"))
		if i%5 == 0 {
			root.Append(xmltree.Elem("q", fmt.Sprintf("q%d", i)))
		}
	}
	return root
}

// wantPostings is the posting list of the nodes of doc tagged tag (and
// holding content, unless it is empty), with RIDs from the locator.
func wantPostings(t *testing.T, db *DB, doc *xmltree.Node, tag, content string) []Posting {
	t.Helper()
	var out []Posting
	doc.Walk(func(n *xmltree.Node) bool {
		if n.Tag == tag && (content == "" || n.Content == content) {
			rid, err := db.LocateRID(n.Interval.ID())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, Posting{Interval: n.Interval, RID: rid})
		}
		return true
	})
	return out
}

// assertIndexCells checks that the cells of tree under prefix+doc are
// exactly the blocks blockKVs packs from want, and that there are
// wantCells of them.
func assertIndexCells(t *testing.T, db *DB, tree *btree.Tree, prefix []byte, key func(xmltree.NodeID) []byte, want []Posting, wantCells int) {
	t.Helper()
	run := make([]btree.KV, len(want))
	for i, p := range want {
		run[i] = btree.KV{Key: key(p.ID()), Value: postingValue(p.Interval, p.RID)}
	}
	blocks, err := blockKVs(run, btree.MaxCellFor(db.st.PageSize()))
	if err != nil {
		t.Fatal(err)
	}
	var got []btree.KV
	doc := be32(uint32(want[0].Interval.Doc))
	if err := tree.ScanPrefix(append(append([]byte(nil), prefix...), doc...), func(k, v []byte) bool {
		got = append(got, btree.KV{Key: append([]byte(nil), k...), Value: append([]byte(nil), v...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != wantCells || len(blocks) != wantCells {
		t.Fatalf("%q: index holds %d cells, blockKVs packs %d, want %d", prefix, len(got), len(blocks), wantCells)
	}
	for i := range blocks {
		if !bytes.Equal(got[i].Key, blocks[i].Key) || !bytes.Equal(got[i].Value, blocks[i].Value) {
			t.Fatalf("%q: cell %d differs from the packed block", prefix, i)
		}
	}
}

// drain reads a cursor to the end and closes it.
func drain(t *testing.T, c *TagCursor) []Posting {
	t.Helper()
	var out []Posting
	for {
		p, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, p)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func assertPostings(t *testing.T, what string, got, want []Posting) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d postings, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: posting %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestDocumentWritesPackBlocks: a document written after the first —
// online through InsertDocument or offline through an incremental
// LoadDocument — lands in the tag and value indexes as exactly the
// posting blocks blockKVs packs for its runs (⌈n/128⌉ cells for n
// postings of one key prefix), not one cell per posting, and every
// cursor and posting list reads back the document's postings.
func TestDocumentWritesPackBlocks(t *testing.T) {
	const n = 300
	for _, online := range []bool{false, true} {
		t.Run(fmt.Sprintf("online=%v", online), func(t *testing.T) {
			db := testDB(t, Options{PageSize: 8192})
			if _, err := db.LoadDocument("base", paperdata.SampleDatabase()); err != nil {
				t.Fatal(err)
			}
			var docs []*xmltree.Node
			for d := 0; d < 2; d++ {
				doc := blockDoc(n)
				name := fmt.Sprintf("blocks%d", d)
				var err error
				if online {
					_, err = db.InsertDocument(name, doc, SyncNone)
				} else {
					_, err = db.LoadDocument(name, doc)
				}
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, doc)
			}
			s := db.head.Load()
			tagT, valT := db.tree(s.tag), db.tree(s.val)
			var allP, allSame []Posting
			for _, doc := range docs {
				p := wantPostings(t, db, doc, "p", "")
				same := wantPostings(t, db, doc, "p", "same")
				assertIndexCells(t, db, tagT, tagPrefix("p"), func(id xmltree.NodeID) []byte { return tagKey("p", id) }, p, (n+127)/128)
				assertIndexCells(t, db, valT, valuePrefix("p", "same"), func(id xmltree.NodeID) []byte { return valueKey("p", "same", id) }, same, (n+127)/128)
				allP = append(allP, p...)
				allSame = append(allSame, same...)
				assertPostings(t, "doc cursor", drain(t, db.OpenTagDocCursor("p", doc.Interval.Doc)), p)
			}
			assertPostings(t, "tag cursor", drain(t, db.OpenTagCursor("p")), allP)
			vals, err := db.ValuePostings("p", "same")
			if err != nil {
				t.Fatal(err)
			}
			assertPostings(t, "value postings", vals, allSame)
			var allQ []Posting
			for _, doc := range docs {
				allQ = append(allQ, wantPostings(t, db, doc, "q", "q5")...)
			}
			vals, err = db.ValuePostings("q", "q5")
			if err != nil {
				t.Fatal(err)
			}
			assertPostings(t, "distinct-content postings", vals, allQ)
		})
	}
}

// articlesDoc renders a bibliography of n articles shaped like the
// benchmark corpus: one to three authors from a pool, a title, a year
// and a journal.
func articlesDoc(n int, seed int64) *xmltree.Node {
	rng := rand.New(rand.NewSource(seed))
	root := xmltree.E("doc_root")
	for i := 0; i < n; i++ {
		art := xmltree.E("article")
		for a := 0; a < 1+rng.Intn(3); a++ {
			art.Append(xmltree.Elem("author", fmt.Sprintf("Author %d", rng.Intn(n/2+1))))
		}
		art.Append(
			xmltree.Elem("title", fmt.Sprintf("Title %d", i)),
			xmltree.Elem("year", fmt.Sprint(1980+rng.Intn(25))),
			xmltree.Elem("journal", fmt.Sprintf("Journal %d", rng.Intn(40))),
		)
		root.Append(art)
	}
	return root
}

// BenchmarkInsertDocument times the online ingest of one five-article
// document (one new author, titles, a year) into a 4 000-article base,
// without fsync. Each document is deleted again outside the timer, so
// every insert sees the same base.
func BenchmarkInsertDocument(b *testing.B) {
	db, err := CreateTemp(Options{PoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("base.xml", articlesDoc(4000, 1)); err != nil {
		b.Fatal(err)
	}
	doc := func(k int) *xmltree.Node {
		root := xmltree.E("doc_root")
		for a := 0; a < 5; a++ {
			root.Append(xmltree.E("article",
				xmltree.Elem("author", fmt.Sprintf("Ingest Author %06d", k)),
				xmltree.Elem("title", fmt.Sprintf("Ingested %d part %d", k, a)),
				xmltree.Elem("year", "2002"),
			))
		}
		return root
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("ingest-%06d.xml", i)
		if _, err := db.InsertDocument(name, doc(i), SyncNone); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := db.DeleteDocument(name, SyncNone); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
