package exec

import (
	"encoding/binary"
	"testing"

	"timber/internal/pagestore"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

func sampleRows() []Row {
	return []Row{
		{},
		{
			Kind: rowBinding,
			Member: storage.Posting{
				Interval: xmltree.Interval{Doc: 1, Start: 10, End: 90, Level: 2},
				RID:      pagestore.RID{Page: 3, Slot: 7},
			},
			Aux: storage.Posting{
				Interval: xmltree.Interval{Doc: 1, Start: 11, End: 12, Level: 3},
				RID:      pagestore.RID{Page: 4, Slot: 1},
			},
			HasAux: true,
			Key:    7,
			Ord:    42,
		},
		{Kind: rowGroup, Key: 1<<32 - 1},
		{Kind: rowCount, Ord: -1},
		{
			// An inverted interval: encodeRow must round-trip any Row
			// value, not only well-formed postings.
			Member: storage.Posting{
				Interval: xmltree.Interval{Doc: 9, Start: 100, End: 5, Level: 1},
			},
			Ord: 1 << 40,
		},
		{
			Member: storage.Posting{
				Interval: xmltree.Interval{Doc: 1<<32 - 1, Start: 1<<32 - 1, End: 1<<32 - 1, Level: 1<<16 - 1},
				RID:      pagestore.RID{Page: 1<<32 - 1, Slot: 1<<16 - 1},
			},
			Key: 0,
			Ord: -(1 << 62),
		},
	}
}

func TestSpillRowRoundTrip(t *testing.T) {
	for i, r := range sampleRows() {
		enc := encodeRow(nil, r)
		got, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if got != r {
			t.Errorf("row %d: got %+v want %+v", i, got, r)
		}
	}
}

func TestSpillRowTruncated(t *testing.T) {
	full := encodeRow(nil, sampleRows()[1])
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeRow(full[:cut]); err == nil {
			t.Errorf("truncated row (%d/%d bytes) decoded cleanly", cut, len(full))
		}
	}
	// Exact consumption: trailing bytes are corruption, not padding.
	if _, err := decodeRow(append(append([]byte(nil), full...), 0)); err == nil {
		t.Error("row with trailing byte decoded cleanly")
	}
	if _, err := decodeRow(overRankRow()); err == nil {
		t.Error("row with a rank past uint32 decoded cleanly")
	}
}

// overRankRow is a zero row's encoding with its rank (the last field, a
// uvarint) replaced by 1<<32: corruption, not a wrapped key.
func overRankRow() []byte {
	enc := encodeRow(nil, Row{})
	return binary.AppendUvarint(enc[:len(enc)-1], 1<<32)
}

// FuzzSpillRow asserts decodeRow is a total function: arbitrary bytes
// either fail or produce a Row whose canonical re-encoding decodes to
// the same value.
func FuzzSpillRow(f *testing.F) {
	for _, r := range sampleRows() {
		f.Add(encodeRow(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(overRankRow())
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRow(b)
		if err != nil {
			return
		}
		// Varints admit non-minimal encodings, so the bytes need not
		// round-trip — the decoded value must.
		got, err := decodeRow(encodeRow(nil, r))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got != r {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
		}
	})
}
