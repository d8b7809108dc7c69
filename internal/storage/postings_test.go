package storage

import (
	"math/rand"
	"testing"

	"timber/internal/btree"
	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

func randPostings(rng *rand.Rand, n int, doc xmltree.DocID) []Posting {
	ps := make([]Posting, n)
	start := uint32(rng.Intn(100) + 1)
	for i := range ps {
		extent := uint32(rng.Intn(5000))
		ps[i] = Posting{
			Interval: xmltree.Interval{
				Doc:   doc,
				Start: start,
				End:   start + extent,
				Level: uint16(rng.Intn(30)),
			},
			RID: pagestore.RID{
				Page: pagestore.PageID(rng.Intn(1 << 20)),
				Slot: pagestore.Slot(rng.Intn(200)),
			},
		}
		start += uint32(rng.Intn(1000) + 1) // strictly increasing
	}
	return ps
}

// encodeTestBlock packs ps (shared doc, ascending starts) exactly as
// blockKVs does, returning the key suffix and value.
func encodeTestBlock(t testing.TB, ps []Posting) (keySuffix, value []byte) {
	t.Helper()
	kvs := make([]btree.KV, len(ps))
	for i, p := range ps {
		kvs[i] = btree.KV{Key: tagKey("t", p.ID()), Value: postingValue(p.Interval, p.RID)}
	}
	out, err := blockKVs(kvs, 1<<20) // huge cell budget: one block
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("expected 1 block, got %d", len(out))
	}
	k := out[0].Key
	return k[len(k)-8:], out[0].Value
}

func TestPostingBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, blockMaxPostings} {
		ps := randPostings(rng, n, 3)
		suffix, val := encodeTestBlock(t, ps)
		got, err := appendBlockPostings(nil, suffix, val)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d postings", n, len(got))
		}
		for i := range ps {
			if got[i] != ps[i] {
				t.Errorf("n=%d posting %d: got %+v want %+v", n, i, got[i], ps[i])
			}
		}
	}
}

func TestPostingBlockTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ps := randPostings(rng, 20, 1)
	suffix, val := encodeTestBlock(t, ps)
	for cut := 0; cut < len(val); cut++ {
		if _, err := appendBlockPostings(nil, suffix, val[:cut]); err == nil {
			t.Errorf("truncated block (%d/%d bytes) decoded cleanly", cut, len(val))
		}
	}
	if _, err := appendBlockPostings(nil, suffix[:4], val); err == nil {
		t.Error("short key suffix decoded cleanly")
	}
	// Trailing garbage must be rejected too (exact consumption).
	if _, err := appendBlockPostings(nil, suffix, append(append([]byte(nil), val...), 0)); err == nil {
		t.Error("block with trailing byte decoded cleanly")
	}
}

// TestBlockKVsSplits verifies blocks break on document boundaries, the
// posting-count cap, and the cell budget — and that the concatenated
// decode reproduces the original run in order.
func TestBlockKVsSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var kvs []btree.KV
	var want []Posting
	for doc := xmltree.DocID(1); doc <= 3; doc++ {
		ps := randPostings(rng, 200, doc)
		for _, p := range ps {
			kvs = append(kvs, btree.KV{Key: tagKey("article", p.ID()), Value: postingValue(p.Interval, p.RID)})
			want = append(want, p)
		}
	}
	maxCell := btree.MaxCellFor(507) // the 512-page test configuration
	blocks, err := blockKVs(kvs, maxCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) >= len(kvs) {
		t.Fatalf("blocking did not shrink the run: %d blocks from %d postings", len(blocks), len(kvs))
	}
	var got []Posting
	for _, kv := range blocks {
		if len(kv.Key)+len(kv.Value) > maxCell {
			t.Fatalf("block cell %d bytes exceeds budget %d", len(kv.Key)+len(kv.Value), maxCell)
		}
		got, err = appendBlockPostings(got, kv.Key[len(kv.Key)-8:], kv.Value)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d postings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("posting %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestSinglePostingBlock: a one-posting run packs into a one-posting
// block that decodes back to it.
func TestSinglePostingBlock(t *testing.T) {
	iv := xmltree.Interval{Doc: 2, Start: 99, End: 105, Level: 4}
	rid := pagestore.RID{Page: 7, Slot: 3}
	suffix, value := encodeTestBlock(t, []Posting{{Interval: iv, RID: rid}})
	got, err := appendBlockPostings(nil, suffix, value)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Interval != iv || got[0].RID != rid {
		t.Fatalf("got %+v", got)
	}
}

func TestRecordCompactRoundTrip(t *testing.T) {
	recs := []*NodeRecord{
		{},
		{
			Interval:    xmltree.Interval{Doc: 1, Start: 5, End: 9, Level: 2},
			ParentStart: 4,
			Tag:         "author",
			Content:     "E. F. Codd",
		},
		{
			Interval: xmltree.Interval{Doc: 3, Start: 1 << 30, End: 1<<30 + 12, Level: 600},
			Tag:      "x",
			Attrs: []xmltree.Attr{
				{Name: "key", Value: "conf/edbt/2002"},
				{Name: "empty", Value: ""},
			},
		},
	}
	for i, r := range recs {
		got, err := decodeRecordCompact(encodeRecordCompact(r))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Interval != r.Interval || got.ParentStart != r.ParentStart ||
			got.Tag != r.Tag || got.Content != r.Content || len(got.Attrs) != len(r.Attrs) {
			t.Errorf("record %d: got %+v want %+v", i, got, r)
		}
		content, err := recordContentCompact(encodeRecordCompact(r))
		if err != nil || content != r.Content {
			t.Errorf("record %d content fast path: %q, %v", i, content, err)
		}
	}
	// Truncations must error.
	full := encodeRecordCompact(recs[2])
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeRecordCompact(full[:cut]); err == nil {
			t.Errorf("truncated record (%d/%d) decoded cleanly", cut, len(full))
		}
	}
}
