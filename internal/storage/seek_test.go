package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"timber/internal/xmltree"
)

// seekTestDoc builds a synthetic document with enough same-tag nodes to
// span many posting blocks (blockMaxPostings is 128); the leaves cycle
// through three contents, so each (leaf, content) spans many blocks too.
func seekTestDoc(items int) string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, "<item><leaf>v%d</leaf></item>", i%3)
	}
	b.WriteString("</root>")
	return b.String()
}

// seekDB loads docs documents of items nodes each and returns a
// snapshot of the database.
func seekDB(t *testing.T, opts Options, docs, items int) *Snapshot {
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
	return pin(t, db)
}

// TestTagCursorSeekMatchesScan: seeking a stream to any (doc, start)
// target yields exactly the suffix a full scan would produce from that
// point, whether the stream is fresh, mid-stream (whole blocks already
// read), or holding the rest of a block an earlier Seek decoded — for
// the tag, (tag, value) and (tag, document) forms. Targets land on
// postings, between postings and past the end.
func TestTagCursorSeekMatchesScan(t *testing.T) {
	db := seekDB(t, Options{}, 3, 400)
	forms := []struct {
		name string
		open func() *PostingStream
		want int
	}{
		{"compact", func() *PostingStream { return db.TagStream("item") }, 1200},
		{"value", func() *PostingStream {
			s, ok := db.ValueStream("leaf", "v1")
			if !ok {
				t.Fatal("no value stream")
			}
			return s
		}, 399},
		{"doc", func() *PostingStream { return db.TagDocStream("item", 2) }, 400},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			all, err := Drain(f.open())
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != f.want {
				t.Fatalf("have %d postings, want %d", len(all), f.want)
			}
			from := func(doc xmltree.DocID, start uint32) int {
				for i, p := range all {
					iv := p.Interval
					if iv.Doc > doc || (iv.Doc == doc && iv.Start >= start) {
						return i
					}
				}
				return len(all)
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 90; trial++ {
				s := f.open()
				// Optionally read a few blocks first so the seek starts
				// mid-stream.
				burn := 0
				for n := rng.Intn(3) * rng.Intn(3); n > 0; n-- {
					b, ok := s.NextBlock()
					if !ok {
						break
					}
					burn += len(b)
				}
				var doc xmltree.DocID
				var start uint32
				if trial%10 == 9 {
					doc, start = 99, 0 // past every document
				} else {
					target := all[rng.Intn(len(all))].Interval
					doc, start = target.Doc, target.Start
					if trial%2 == 1 {
						start++ // between-posting target
					}
				}
				if trial%3 == 2 && start > 0 {
					// An earlier seek first, so the second one searches
					// the block the first decoded.
					s.Seek(doc, start-1)
				}
				wantFrom := max(from(doc, start), burn) // Seek never rewinds
				s.Seek(doc, start)
				got, err := Drain(s)
				if err != nil {
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
}

// TestTagCursorSeekSkipsBlocks: a document-level jump over a long
// posting list must skip whole blocks undecoded — the stream's decoded
// count stays far below the full list.
func TestTagCursorSeekSkipsBlocks(t *testing.T) {
	db := seekDB(t, Options{}, 4, 500)
	s := db.TagStream("item")
	defer s.Close()
	if _, ok := s.NextBlock(); !ok { // position in doc 1
		t.Fatal("no postings")
	}
	s.Seek(4, 0) // jump over docs 1-3 (~1500 postings, ~12 blocks)
	b, ok := s.NextBlock()
	if !ok || b[0].Interval.Doc != 4 {
		t.Fatalf("after Seek(4,0): block %+v ok=%v, want doc 4", b, ok)
	}
	if s.Decoded() > 500 {
		t.Errorf("seek decoded %d postings for a 2000-posting list, want <= 500", s.Decoded())
	}
}
