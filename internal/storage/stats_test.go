package storage

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"timber/internal/paperdata"
)

// TestCardStatsNoMaintenanceWithoutStats: no write path stores
// statistics — after inserts, a delete and the BuildCardStats shim the
// catalog tree holds document keys only.
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
// statistics records reopens, lists exactly its documents and takes an
// insert and a delete; the records stay in the catalog untouched.
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
	legacyKeys := func() int {
		n := 0
		err := db.tree(db.tip.catalog).ScanPrefix(nil, func(k, _ []byte) bool {
			if isStatsKey(k) {
				n++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := docNames(); len(got) != 1 || got[0] != "bib.xml" {
		t.Fatalf("documents after reopen = %v, want [bib.xml]", got)
	}
	if got := legacyKeys(); got != 5 {
		t.Errorf("catalog holds %d statistics records after reopen, want 5", got)
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
	if got := legacyKeys(); got != 5 {
		t.Errorf("catalog holds %d statistics records after insert and delete, want 5", got)
	}
}
