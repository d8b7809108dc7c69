package pagestore

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFlushSkipsScratchPages holds a scratch heap's dirty tail pinned
// in an appender while Flush runs: Flush writes the committed heap's
// page and no scratch page, and the appender keeps filling the same
// tail afterwards. Eviction (here DropCache) still writes the scratch
// pages back, and they read back intact.
func TestFlushSkipsScratchPages(t *testing.T) {
	st := tempStore(t, Options{PageSize: 512, PoolPages: 64, Codec: LZ()})
	committed, err := NewHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := committed.Insert([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	scratch, err := NewScratchHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	scratch.Track()
	app := scratch.Appender()
	defer app.Close()
	rec := bytes.Repeat([]byte{'s'}, 40)
	const n = 60
	for i := 0; i < n-1; i++ {
		if _, err := app.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	pages := 1 + len(scratch.tracked)
	if pages < 4 {
		t.Fatalf("scratch heap spans %d pages, want several", pages)
	}

	before := st.Stats().PhysicalWrites
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := st.Stats().PhysicalWrites - before; w != 1 {
		t.Errorf("Flush wrote %d pages, want 1 (the committed heap's page; %d scratch pages are dirty)", w, pages)
	}
	if _, err := app.Append(rec); err != nil {
		t.Fatal(err)
	}
	app.Close()

	before = st.Stats().PhysicalWrites
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	if w := st.Stats().PhysicalWrites - before; w != uint64(pages) {
		t.Errorf("DropCache wrote %d pages, want the %d scratch pages", w, pages)
	}
	c := NewHeapCursor(st, scratch.FirstPage())
	got := 0
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		if !bytes.Equal(r, rec) {
			t.Fatalf("record %d = %q after re-read", got, r)
		}
		got++
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("re-read %d records, want %d", got, n)
	}
	if err := st.FreePages(append([]PageID{scratch.FirstPage()}, scratch.TakeTracked()...)); err != nil {
		t.Fatal(err)
	}
	if c := st.class(scratch.FirstPage()); c != 0 {
		t.Errorf("freed scratch page keeps class %d", c)
	}
}

// TestFlushBesideScratchAppender runs Flush in a loop on a second
// goroutine while an appender fills a scratch heap: Flush writes
// nothing, and under -race no access of the appender's pinned tail
// races with it.
func TestFlushBesideScratchAppender(t *testing.T) {
	st := tempStore(t, Options{PageSize: 512, PoolPages: 256})
	h, err := NewScratchHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	app := h.Appender()
	defer app.Close()
	var flushes atomic.Int64
	done := make(chan struct{})
	flushErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				flushErr <- nil
				return
			default:
			}
			if err := st.Flush(); err != nil {
				flushErr <- err
				return
			}
			flushes.Add(1)
			runtime.Gosched()
		}
	}()
	rec := bytes.Repeat([]byte{'r'}, 24)
	for i := 0; i < 2000 || flushes.Load() < 5; i++ {
		if _, err := app.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			runtime.Gosched()
		}
	}
	close(done)
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	app.Close()
	if s := st.Stats(); s.PhysicalWrites != 0 || s.Evictions != 0 {
		t.Errorf("%d flushes beside the appender wrote %d pages (%d evictions), want 0",
			flushes.Load(), s.PhysicalWrites, s.Evictions)
	}
}
