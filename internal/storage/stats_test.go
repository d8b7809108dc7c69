package storage

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"timber/internal/paperdata"
	"timber/internal/stats"
	"timber/internal/xmltree"
)

// cardStats runs the ANALYZE scan on a snapshot of the current state.
func cardStats(t *testing.T, db *DB) *stats.Catalog {
	t.Helper()
	sn := db.Snapshot()
	defer sn.Close()
	cat, err := sn.CardStats()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// referenceStats is the ground truth for a sequence of online inserts
// and deletes: the ANALYZE scan of a database that bulk-loads exactly
// the surviving documents.
func referenceStats(t *testing.T, docs ...*xmltree.Node) *stats.Catalog {
	t.Helper()
	db := testDB(t, Options{})
	for i, d := range docs {
		if _, err := db.LoadDocument("ref"+string(rune('a'+i)), d); err != nil {
			t.Fatal(err)
		}
	}
	return cardStats(t, db)
}

func TestCardStatsAbsent(t *testing.T) {
	db := testDB(t, Options{})
	got := cardStats(t, db)
	if got.TotalNodes != 0 || got.Documents != 0 || len(got.Tags) != 0 {
		t.Fatalf("CardStats on empty database: %+v, want an empty catalog", got)
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
	got := cardStats(t, db)
	if !got.Equal(built) {
		t.Errorf("BuildCardStats and Snapshot.CardStats disagree:\n got %+v\nwant %+v", got, built)
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

// TestCardStatsRoundTripReopen: the scan of a reopened file describes
// the same data as before the close.
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
	before := cardStats(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{PageSize: 512, PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if after := cardStats(t, db2); !after.Equal(before) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", after, before)
	}
	if len(db2.Documents()) != 2 {
		t.Errorf("documents after reopen = %d, want 2", len(db2.Documents()))
	}
}

// TestCardStatsIncrementalInsertDelete: after online inserts and
// deletes the scan counts exactly what a bulk load of the surviving
// documents counts — including distinct-value extinction (the
// Transaction articles' contents vanish with their document, shared
// tags like author keep their surviving values).
func TestCardStatsIncrementalInsertDelete(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertDocument("dblp.xml", paperdata.TransactionArticles(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	want := referenceStats(t, paperdata.SampleDatabase(), paperdata.TransactionArticles())
	if got := cardStats(t, db); !got.Equal(want) {
		t.Errorf("after insert:\n got %+v\nwant %+v", got, want)
	}

	if err := db.DeleteDocument("dblp.xml", SyncAlways); err != nil {
		t.Fatal(err)
	}
	want = referenceStats(t, paperdata.SampleDatabase())
	if got := cardStats(t, db); !got.Equal(want) {
		t.Errorf("after delete:\n got %+v\nwant %+v", got, want)
	}

	// Deleting the last document must leave an empty catalog.
	if err := db.DeleteDocument("bib.xml", SyncAlways); err != nil {
		t.Fatal(err)
	}
	if got := cardStats(t, db); got.TotalNodes != 0 || got.Documents != 0 || len(got.Tags) != 0 {
		t.Errorf("after deleting everything: %+v, want an empty catalog", got)
	}
}

// TestCardStatsNoMaintenanceWithoutStats: no write path stores
// statistics — after inserts, a delete and an ANALYZE the catalog tree
// holds document keys only.
func TestCardStatsNoMaintenanceWithoutStats(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertDocument("dblp.xml", paperdata.TransactionArticles(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument("dblp.xml", SyncAlways); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildCardStats(SyncAlways); err != nil {
		t.Fatal(err)
	}
	err := db.tree(db.tip.catalog).ScanPrefix(nil, func(k, _ []byte) bool {
		if isStatsKey(k) {
			t.Errorf("catalog holds statistics key %x", k)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCardStatsSnapshotIsolation: a pinned snapshot's scan sees the
// statistics of its own epoch, not later ones.
func TestCardStatsSnapshotIsolation(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
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
	if tip := cardStats(t, db); tip.Equal(before) {
		t.Error("tip statistics should differ from the pinned snapshot's after ingest")
	}
}

// writeLegacyStats commits statistics records into the catalog tree
// the way files written before statistics were computed on demand
// carry them: a header record under {ff ff ff ff fe} 'H' (version
// byte 1, then epoch, data-version token, node total and document
// count as uvarints) and one record per tag under {ff ff ff ff fe} 'T'
// + tag (postings, docs, value postings, distinct values). The counts
// are deliberately wrong, so a reader that decoded them would be seen.
func writeLegacyStats(t *testing.T, db *DB, tags ...string) {
	t.Helper()
	prefix := []byte{0xff, 0xff, 0xff, 0xff, 0xfe}
	appendUvarints := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	db.writeMu.Lock()
	base := db.tip
	h, err := db.beginTxn()
	if err != nil {
		db.writeMu.Unlock()
		t.Fatal(err)
	}
	err = h.catalog.Insert(append(append([]byte(nil), prefix...), 'H'), appendUvarints([]byte{1}, 9, 77, 999, 42))
	for _, tag := range tags {
		if err == nil {
			key := append(append(append([]byte(nil), prefix...), 'T'), tag...)
			err = h.catalog.Insert(key, appendUvarints(nil, 1000, 500, 1000, 3))
		}
	}
	txn := db.finishTxn(h, func(s *snapState) { s.docs = base.docs })
	if err == nil {
		err = db.commitLocked(txn)
	}
	if err != nil {
		db.abortLocked(txn)
		db.writeMu.Unlock()
		t.Fatal(err)
	}
	seq := db.seq
	db.writeMu.Unlock()
	if err := db.finishCommit(txn.state, seq, SyncAlways, txn.freed); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyStatsRecordsIgnored: a file that still carries persisted
// statistics records reopens, lists exactly its documents, takes an
// insert and a delete, and its scan equals that of a database that
// never had the records.
func TestLegacyStatsRecordsIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.timber")
	opts := Options{PageSize: 512, PoolPages: 128}
	db, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertDocument("bib.xml", paperdata.SampleDatabase(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	writeLegacyStats(t, db, "article", "author", "title", "vanished")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	docNames := func() []string {
		var names []string
		for _, d := range db.Documents() {
			names = append(names, d.Name)
		}
		return names
	}
	if got := docNames(); len(got) != 1 || got[0] != "bib.xml" {
		t.Fatalf("documents after reopen = %v, want [bib.xml]", got)
	}
	if got, want := cardStats(t, db), referenceStats(t, paperdata.SampleDatabase()); !got.Equal(want) {
		t.Errorf("scan after reopen:\n got %+v\nwant %+v", got, want)
	}

	if _, err := db.InsertDocument("dblp.xml", paperdata.TransactionArticles(), SyncAlways); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteDocument("bib.xml", SyncAlways); err != nil {
		t.Fatal(err)
	}
	if got := docNames(); len(got) != 1 || got[0] != "dblp.xml" {
		t.Fatalf("documents after insert and delete = %v, want [dblp.xml]", got)
	}
	if got, want := cardStats(t, db), referenceStats(t, paperdata.TransactionArticles()); !got.Equal(want) {
		t.Errorf("scan after insert and delete:\n got %+v\nwant %+v", got, want)
	}
}
