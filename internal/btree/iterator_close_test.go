package btree

import (
	"fmt"
	"testing"
)

// TestIteratorCloseSurfacesReleaseError pins the regression where a
// pin-accounting fault during Close was swallowed: if the iterator's
// page has already been unpinned behind its back, Close must return the
// release error rather than report success (or panic the way
// Store.Unpin would). Scans that fail this way used to look clean and
// only blow up much later, at FreePages or DropCache, far from the
// culprit.
func TestIteratorCloseSurfacesReleaseError(t *testing.T) {
	st, tr := testTree(t, 256)
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := tr.Insert([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	it := tr.Seek(nil)
	if !it.Valid() {
		t.Fatal("iterator not positioned on first cell")
	}
	if it.page == nil {
		t.Fatal("iterator holds no pinned page")
	}
	// Simulate a foreign unpin (double-release bug elsewhere): drop the
	// iterator's pin so its own release must fail.
	if err := st.Release(it.page, false); err != nil {
		t.Fatalf("foreign release: %v", err)
	}

	err := it.Close()
	if err == nil {
		t.Fatal("Close() = nil, want pin-release error")
	}
	// Sticky: Err and repeated Close report the same fault.
	if it.Err() == nil {
		t.Error("Err() = nil after failed Close")
	}
	if again := it.Close(); again == nil {
		t.Error("second Close() = nil, want sticky error")
	}
	if it.Valid() {
		t.Error("iterator still Valid after failed Close")
	}
}

// TestIteratorCloseCleanPath is the happy-path counterpart: a normal
// early Close returns nil and the page can be evicted afterwards.
func TestIteratorCloseCleanPath(t *testing.T) {
	_, tr := testTree(t, 256)
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%02d", i)
		if err := tr.Insert([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.Seek([]byte("k03"))
	if !it.Valid() || string(it.Key()) != "k03" {
		t.Fatalf("seek positioned at %q, want k03", it.Key())
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close() = %v, want nil", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("idempotent Close() = %v, want nil", err)
	}
}
