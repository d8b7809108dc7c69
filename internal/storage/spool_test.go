package storage

import (
	"bytes"
	"testing"

	"timber/internal/paperdata"
)

// TestCheckpointWritesNoScratchPage checkpoints while a spool run is
// open and partly written (its appender holds the dirty tail pinned):
// the checkpoint writes exactly what a checkpoint with no spool open
// writes, and the run reads back intact afterwards.
func TestCheckpointWritesNoScratchPage(t *testing.T) {
	db := testDB(t, Options{PoolPages: 256})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointWrites := func() uint64 {
		t.Helper()
		before := db.st.Stats().PhysicalWrites
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return db.st.Stats().PhysicalWrites - before
	}
	baseline := checkpointWrites()

	sn := pin(t, db)
	pagesBefore := db.NumPages()
	sp := sn.NewSpool()
	defer sp.Close()
	run, err := sp.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'q'}, 30)
	const n = 300
	for i := 0; i < n; i++ {
		if err := run.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if grown := db.NumPages() - pagesBefore; grown < 10 {
		t.Fatalf("run spans %d pages, want at least 10", grown)
	}
	if got := checkpointWrites(); got != baseline {
		t.Errorf("checkpoint beside an open spool run wrote %d pages, without one %d", got, baseline)
	}

	c := run.Open()
	got := 0
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		if !bytes.Equal(r, rec) {
			t.Fatalf("record %d = %q", got, r)
		}
		got++
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("run read back %d records, want %d", got, n)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if db.NumPages() != pagesBefore {
		t.Errorf("pages after spool = %d, want %d", db.NumPages(), pagesBefore)
	}
}

// TestSpoolCloseRetriesFailedFree closes a spool while a run cursor
// still pins one of its pages: Close reports the failed free and hands
// the pages to the reclamation retry set, and once the cursor and the
// snapshot are closed the next pass frees every one of them.
func TestSpoolCloseRetriesFailedFree(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Close()
	pagesBefore, freedBefore := db.NumPages(), db.ing.spoolPagesFreed.Load()
	sp := sn.NewSpool()
	run, err := sp.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := run.Append([]byte("a spooled record")); err != nil {
			t.Fatal(err)
		}
	}
	allocated := db.NumPages() - pagesBefore
	c := run.Open()
	if _, ok := c.Next(); !ok {
		t.Fatalf("empty run: %v", c.Err())
	}
	if err := sp.Close(); err == nil {
		t.Fatal("spool close with a pinned cursor page succeeded")
	}
	if db.NumPages() != pagesBefore+allocated {
		t.Fatalf("pages after failed close = %d, want %d still allocated", db.NumPages(), pagesBefore+allocated)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sn.Close(); err != nil {
		t.Fatal(err)
	}
	if db.NumPages() != pagesBefore {
		t.Errorf("pages after the next reclamation pass = %d, want %d", db.NumPages(), pagesBefore)
	}
	if freed := db.ing.spoolPagesFreed.Load() - freedBefore; freed != uint64(allocated) {
		t.Errorf("spool_pages_freed grew by %d, spool allocated %d", freed, allocated)
	}
}
