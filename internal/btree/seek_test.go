package btree

import (
	"bytes"
	"fmt"
	"testing"
)

// seekTestKeys loads n sequential keys into a small-page tree (forcing
// a multi-leaf shape) and returns them in sorted order.
func seekTestKeys(t *testing.T, tr *Tree, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		if err := tr.Insert(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// TestIteratorPeekNextKey: within a leaf the peek matches what Next
// lands on, and the final cell of the tree peeks false.
func TestIteratorPeekNextKey(t *testing.T) {
	_, tr := testTree(t, 256)
	keys := seekTestKeys(t, tr, 200)
	it := tr.Seek(nil)
	defer it.Close()
	seen := 0
	for it.Valid() {
		peek, ok := it.PeekNextKey()
		var peeked []byte
		if ok {
			peeked = append([]byte(nil), peek...)
		}
		it.Next()
		if it.Valid() && ok && !bytes.Equal(peeked, it.Key()) {
			t.Fatalf("peek %q but Next landed on %q", peeked, it.Key())
		}
		if !it.Valid() && ok {
			t.Fatalf("peeked %q past the end of the tree", peeked)
		}
		seen++
	}
	if seen != len(keys) {
		t.Fatalf("iterated %d cells, want %d", seen, len(keys))
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}
