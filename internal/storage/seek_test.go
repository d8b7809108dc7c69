package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"timber/internal/xmltree"
)

// seekTestDoc builds a synthetic document with enough same-tag nodes to
// span many posting blocks (blockMaxPostings is 128).
func seekTestDoc(items int) string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, "<item><leaf>v%d</leaf></item>", i)
	}
	b.WriteString("</root>")
	return b.String()
}

// seekDB loads docs documents of items nodes each and returns the DB.
func seekDB(t *testing.T, opts Options, docs, items int) *DB {
	t.Helper()
	db := testDB(t, opts)
	for d := 0; d < docs; d++ {
		root, err := xmltree.ParseString(seekTestDoc(items))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.LoadDocument(fmt.Sprintf("doc%d.xml", d), root); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestTagCursorSeekMatchesScan: seeking to any (doc, start) target
// yields exactly the suffix a full scan would produce from that point,
// whether the cursor is fresh or mid-stream.
func TestTagCursorSeekMatchesScan(t *testing.T) {
	t.Run("compact", func(t *testing.T) {
		db := seekDB(t, Options{}, 3, 400)
		all, err := db.TagPostings("item")
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 1200 {
			t.Fatalf("have %d item postings, want 1200", len(all))
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 60; trial++ {
			c := db.OpenTagCursor("item")
			// Optionally consume a few postings first so the seek
			// starts mid-buffer / mid-stream.
			burn := rng.Intn(3) * rng.Intn(200)
			for i := 0; i < burn; i++ {
				c.Next()
			}
			var doc xmltree.DocID
			var start uint32
			wantFrom := len(all)
			if trial%10 == 9 {
				doc, start = 99, 0 // past every document
			} else {
				target := rng.Intn(len(all))
				doc, start = all[target].Interval.Doc, all[target].Interval.Start
				if trial%2 == 1 {
					start++ // between-posting target
				}
				for i, p := range all {
					iv := p.Interval
					if iv.Doc > doc || (iv.Doc == doc && iv.Start >= start) {
						wantFrom = i
						break
					}
				}
			}
			if wantFrom < burn {
				wantFrom = burn // Seek never rewinds past consumed postings
			}
			c.Seek(doc, start)
			var got []Posting
			for {
				p, ok := c.Next()
				if !ok {
					break
				}
				got = append(got, p)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			want := all[wantFrom:]
			if len(got) != len(want) {
				t.Fatalf("trial %d (burn %d, target %d/%d): got %d postings after seek, want %d",
					trial, burn, doc, start, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: posting %d = %+v, want %+v", trial, i, got[i], want[i])
				}
			}
		}
	})
}

// TestTagCursorSeekSkipsBlocks: a document-level jump over a long
// posting list must skip whole blocks undecoded — the
// PostingsDecoded account stays far below the full list.
func TestTagCursorSeekSkipsBlocks(t *testing.T) {
	db := seekDB(t, Options{}, 4, 500)
	c := db.OpenTagCursor("item")
	defer c.Close()
	if _, ok := c.Next(); !ok { // position in doc 1
		t.Fatal("no postings")
	}
	c.Seek(4, 0) // jump over docs 1-3 (~1500 postings, ~12 blocks)
	p, ok := c.Next()
	if !ok || p.Interval.Doc != 4 {
		t.Fatalf("after Seek(4,0): posting %+v ok=%v, want doc 4", p, ok)
	}
	if c.BlocksSkipped() == 0 {
		t.Error("document-level seek decoded every block (BlocksSkipped = 0)")
	}
	if c.PostingsDecoded() > 500 {
		t.Errorf("seek decoded %d postings for a 2000-posting list, want <= 500", c.PostingsDecoded())
	}
}
