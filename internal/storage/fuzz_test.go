package storage

import (
	"reflect"
	"testing"

	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// FuzzPostingBlock asserts the block decoder's total-function contract:
// arbitrary (keySuffix, value) bytes either decode to 1..128 postings
// or return an error — never a panic, an out-of-range field, or a read
// past the input.
func FuzzPostingBlock(f *testing.F) {
	iv := xmltree.Interval{Doc: 1, Start: 10, End: 20, Level: 3}
	key := tagKey("seed", iv.ID())
	suffix, one := encodeTestBlock(f, []Posting{{Interval: iv, RID: pagestore.RID{Page: 5, Slot: 2}}})
	f.Add(suffix, one)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 9}, []byte{1, 4, 2, 9, 1})
	f.Add([]byte{}, []byte{})
	f.Add(key[len(key)-8:], []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, keySuffix, value []byte) {
		ps, err := appendBlockPostings(nil, keySuffix, value)
		if err != nil {
			return
		}
		if len(ps) < 1 || len(ps) > blockMaxPostings {
			t.Fatalf("decoded %d postings without error", len(ps))
		}
		for _, p := range ps {
			if p.Interval.End < p.Interval.Start {
				t.Fatalf("inverted interval %+v", p.Interval)
			}
		}
	})
}

// FuzzRecordCompact asserts the varint record decoder (and its content
// fast path) never panics, that the fast path agrees with the full
// decode whenever both succeed, and that the node decoder — with tag
// interning, as the spill read-back runs it — and decodeRecordCompact
// either both reject a record or give the same fields.
func FuzzRecordCompact(f *testing.F) {
	f.Add(encodeRecord(&NodeRecord{
		Interval:    xmltree.Interval{Doc: 1, Start: 2, End: 8, Level: 1},
		ParentStart: 1,
		Tag:         "article",
		Content:     "Grouping in XML",
		Attrs:       []xmltree.Attr{{Name: "key", Value: "v"}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecordCompact(b)
		content, cerr := recordContentCompact(b)
		tags := map[string]string{}
		for pass := 0; pass < 2; pass++ { // the second pass hits the interned tag
			var n xmltree.Node
			parent, nerr := decodeRecordNode(b, &n, tags)
			if (nerr == nil) != (err == nil) {
				t.Fatalf("node decoder error %v, record decoder error %v", nerr, err)
			}
			if err == nil {
				got := &NodeRecord{Interval: n.Interval, ParentStart: parent, Tag: n.Tag, Content: n.Content, Attrs: n.Attrs}
				if !reflect.DeepEqual(got, rec) {
					t.Fatalf("node decoder gives %+v, record decoder %+v", got, rec)
				}
			}
		}
		if err == nil && cerr == nil && content != rec.Content {
			t.Fatalf("content fast path %q disagrees with decode %q", content, rec.Content)
		}
		if err == nil {
			// Re-encode must round-trip: the decoder accepts only
			// canonical field values.
			got, err2 := decodeRecordCompact(encodeRecord(rec))
			if err2 != nil {
				t.Fatalf("re-decode failed: %v", err2)
			}
			if got.Interval != rec.Interval || got.Tag != rec.Tag || got.Content != rec.Content {
				t.Fatal("re-encode round trip mismatch")
			}
		}
	})
}
