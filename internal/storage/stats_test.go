package storage

import (
	"errors"
	"path/filepath"
	"testing"

	"timber/internal/paperdata"
	"timber/internal/stats"
)

// collectFresh runs the ANALYZE scan on the current tip — the ground
// truth incremental maintenance must reproduce.
func collectFresh(t *testing.T, db *DB) *stats.Catalog {
	t.Helper()
	db.writeMu.Lock()
	cat, err := db.collectCardStats(db.tip)
	db.writeMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCardStatsAbsent(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.CardStats(); !errors.Is(err, ErrNoStats) {
		t.Fatalf("CardStats on empty database: got %v, want ErrNoStats", err)
	}
}

func TestCardStatsBuildAndRead(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	built, err := db.BuildCardStats(SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fresh {
		t.Error("statistics just built should read back Fresh")
	}
	if !got.Equal(built) {
		t.Errorf("read-back mismatch:\n got %+v\nwant %+v", got, built)
	}

	// Spot-check against the known Figure 6 shape: 3 articles, 5
	// authors, 3 titles under one doc_root.
	if n := got.Tag("article").Postings; n != 3 {
		t.Errorf("article postings = %d, want 3", n)
	}
	if n := got.Tag("author").Postings; n != 5 {
		t.Errorf("author postings = %d, want 5", n)
	}
	if n := got.Tag("author").DistinctValues; n != 3 {
		t.Errorf("author distinct values = %d, want 3 (Jack, Jill, John)", n)
	}
	if got.Documents != 1 {
		t.Errorf("documents = %d, want 1", got.Documents)
	}
}

func TestCardStatsRoundTripReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.timber")
	db, err := Create(path, Options{PageSize: 512, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertDocument("dblp.xml", paperdata.TransactionArticles(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildCardStats(SyncAlways); err != nil {
		t.Fatal(err)
	}
	before, err := db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{PageSize: 512, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	after, err := db2.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !after.Fresh {
		t.Error("statistics should stay fresh across reopen (no data changed)")
	}
	// Epoch restarts on reopen by design; the data statistics and the
	// version token must survive byte-identically.
	after.Epoch = before.Epoch
	if !after.Equal(before) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", after, before)
	}
	if len(db2.Documents()) != 2 {
		t.Errorf("documents after reopen = %d, want 2 (stats records must not pollute the catalog)", len(db2.Documents()))
	}
}

func TestCardStatsIncrementalInsertDelete(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildCardStats(SyncAlways); err != nil {
		t.Fatal(err)
	}

	// Insert under maintenance: the incremental statistics must match a
	// from-scratch ANALYZE of the new state exactly.
	if _, err := db.InsertDocument("dblp.xml", paperdata.TransactionArticles(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	got, err := db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fresh {
		t.Fatal("statistics should stay fresh across InsertDocument")
	}
	want := collectFresh(t, db)
	want.Epoch = got.Epoch
	if !got.Equal(want) {
		t.Errorf("after insert:\n got %+v\nwant %+v", got, want)
	}

	// Delete likewise — including distinct-value extinction (the
	// Transaction articles' contents vanish with the document, shared
	// tags like author keep their surviving values).
	if err := db.DeleteDocument("dblp.xml", SyncAlways); err != nil {
		t.Fatal(err)
	}
	got, err = db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fresh {
		t.Fatal("statistics should stay fresh across DeleteDocument")
	}
	want = collectFresh(t, db)
	want.Epoch = got.Epoch
	if !got.Equal(want) {
		t.Errorf("after delete:\n got %+v\nwant %+v", got, want)
	}

	// Deleting the last document must leave an empty-but-fresh catalog.
	if err := db.DeleteDocument("bib.xml", SyncAlways); err != nil {
		t.Fatal(err)
	}
	got, err = db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fresh || got.TotalNodes != 0 || got.Documents != 0 || len(got.Tags) != 0 {
		t.Errorf("after deleting everything: %+v, want fresh empty catalog", got)
	}
}

func TestCardStatsStaleAfterOfflineLoad(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildCardStats(SyncAlways); err != nil {
		t.Fatal(err)
	}
	// The offline bulk path bypasses incremental maintenance: the
	// persisted statistics survive but must read back stale.
	if _, err := db.LoadDocument("bulk.xml", paperdata.TransactionArticles()); err != nil {
		t.Fatal(err)
	}
	got, err := db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fresh {
		t.Fatal("statistics must be stale after an offline LoadDocument")
	}
	// ANALYZE repairs them.
	if _, err := db.BuildCardStats(SyncAlways); err != nil {
		t.Fatal(err)
	}
	got, err = db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Fresh {
		t.Fatal("BuildCardStats must restore freshness")
	}
	want := collectFresh(t, db)
	want.Epoch = got.Epoch
	if !got.Equal(want) {
		t.Errorf("after repair:\n got %+v\nwant %+v", got, want)
	}
}

func TestCardStatsNoMaintenanceWithoutStats(t *testing.T) {
	db := testDB(t, Options{})
	// Ingest without ever building statistics: nothing to maintain, and
	// nothing must appear.
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CardStats(); !errors.Is(err, ErrNoStats) {
		t.Fatalf("CardStats: got %v, want ErrNoStats", err)
	}
}

// statsSnapshotView checks the Reader interface path: a pinned snapshot
// sees the statistics of its own epoch, not later ones.
func TestCardStatsSnapshotIsolation(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildCardStats(SyncAlways); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Close()
	before, err := sn.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertDocument("dblp.xml", paperdata.TransactionArticles(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	again, err := sn.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(before) {
		t.Errorf("pinned snapshot statistics changed under concurrent ingest:\n got %+v\nwant %+v", again, before)
	}
	tip, err := db.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	if tip.Equal(before) {
		t.Error("tip statistics should differ from the pinned snapshot's after ingest")
	}
}
