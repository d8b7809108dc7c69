package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"timber/internal/crashfs"
	"timber/internal/xmltree"
)

// crashDoc builds a small distinct document for ingest i.
func crashDoc(t *testing.T, i int) *xmltree.Node {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, `<bib seq="%d">`, i)
	for j := 0; j <= i%3; j++ {
		fmt.Fprintf(&b, `<article><author>author %d-%d</author><title>title %d-%d</title><year>%d</year></article>`,
			i, j, i, j, 1990+i)
	}
	b.WriteString(`</bib>`)
	root, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// serializeDoc renders one stored document back to XML bytes.
func serializeDoc(t *testing.T, db *DB, d DocInfo) string {
	t.Helper()
	sn := db.Snapshot()
	defer sn.Close()
	root, err := sn.GetSubtree(xmltree.NodeID{Doc: d.ID, Start: d.RootStart})
	if err != nil {
		t.Fatalf("doc %s: %v", d.Name, err)
	}
	var out strings.Builder
	if err := xmltree.Serialize(&out, root); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// ingestHistory runs a SyncAlways ingest workload over a crashfs disk
// and records, after each acknowledged commit, the disk watermarks a
// later crash must respect.
type ingestHistory struct {
	disk *crashfs.Disk
	// ackBytes[k] / ackOps[k]: disk position right after insert k was
	// acknowledged; want[name]: reference serialization of each doc.
	ackBytes []int64
	ackOps   []uint64
	names    []string
	want     map[string]string
}

func runIngestHistory(t *testing.T, docs int) *ingestHistory {
	t.Helper()
	h := &ingestHistory{disk: crashfs.New(), want: map[string]string{}}
	dbf, err := h.disk.Create("db")
	if err != nil {
		t.Fatal(err)
	}
	wf, err := h.disk.Create("wal")
	if err != nil {
		t.Fatal(err)
	}
	db, err := CreateOnFiles(dbf, wf, Options{PageSize: 1024, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		name := fmt.Sprintf("doc-%02d.xml", i)
		root := crashDoc(t, i)
		if _, err := db.InsertDocument(name, root, SyncAlways); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
		h.names = append(h.names, name)
		h.ackBytes = append(h.ackBytes, h.disk.Bytes())
		h.ackOps = append(h.ackOps, h.disk.Ops())
		var out strings.Builder
		if err := xmltree.Serialize(&out, root); err != nil {
			t.Fatal(err)
		}
		h.want[name] = out.String()
	}
	// Leave the database un-closed: the crash images below are cuts of
	// the journaled history, so a clean shutdown must not be required.
	return h
}

// ackedBefore returns how many inserts were acknowledged at or before
// the given byte watermark.
func (h *ingestHistory) ackedBefore(bytes int64) int {
	n := 0
	for _, w := range h.ackBytes {
		if w <= bytes {
			n++
		}
	}
	return n
}

// checkRecovered opens a crash image and asserts the recovered catalog
// is a committed prefix of the ingest history containing at least
// minDocs documents, every surviving document byte-identical to its
// reference serialization. It returns the prefix length.
func checkRecovered(t *testing.T, h *ingestHistory, img *crashfs.Disk, minDocs int, label string) int {
	t.Helper()
	dbf, err := img.Open("db")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wf, err := img.Open("wal")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	db, err := OpenOnFiles(dbf, wf, Options{PoolPages: 64})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer db.Close()

	docs := db.Documents()
	k := len(docs)
	if k < minDocs {
		t.Fatalf("%s: recovered %d documents, but %d commits were acknowledged durable", label, k, minDocs)
	}
	if k > len(h.names) {
		t.Fatalf("%s: recovered %d documents, only %d were ever inserted", label, k, len(h.names))
	}
	for i, d := range docs {
		if d.Name != h.names[i] {
			t.Fatalf("%s: recovered catalog %v is not a prefix of the ingest order", label, docNames(docs))
		}
		if got := serializeDoc(t, db, d); got != h.want[d.Name] {
			t.Fatalf("%s: %s recovered with different bytes:\n got %q\nwant %q", label, d.Name, got, h.want[d.Name])
		}
	}
	// The recovered database accepts new commits: the write path came
	// back, not just the catalog.
	if _, err := db.InsertDocument("post-crash.xml", crashDoc(t, 99), SyncAlways); err != nil {
		t.Fatalf("%s: post-recovery insert: %v", label, err)
	}
	return k
}

func docNames(docs []DocInfo) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	return out
}

// TestCrashRecoveryTornWrites cuts the journaled disk history at byte
// offsets spanning the whole ingest run — including mid-write, tearing
// a WAL frame or a data page — and asserts every image recovers to a
// committed prefix no shorter than the acknowledged watermark
// (SyncAlways: an acknowledged commit is on disk before the cut).
func TestCrashRecoveryTornWrites(t *testing.T) {
	const docs = 10
	h := runIngestHistory(t, docs)
	total := h.disk.Bytes()
	base := h.ackBytes[0] // image must contain at least one full commit

	budgets := map[int64]bool{total: true}
	for _, w := range h.ackBytes {
		budgets[w] = true   // exactly at an ack
		budgets[w+7] = true // shortly after: tears the next txn's frames
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 32; i++ {
		budgets[base+rng.Int63n(total-base+1)] = true
	}
	points := 0
	for b := range budgets {
		if b < base || b > total {
			continue
		}
		points++
		img := h.disk.CrashDiskAtBytes(b)
		k := checkRecovered(t, h, img, h.ackedBefore(b), fmt.Sprintf("cut@%dB", b))
		if testing.Verbose() {
			t.Logf("cut@%dB: recovered %d/%d documents", b, k, docs)
		}
	}
	if points < docs {
		t.Fatalf("only %d crash points exercised", points)
	}
}

// TestCrashRecoveryDropUnsynced replays the harshest POSIX crash:
// every write not covered by an fsync barrier is lost. SyncAlways
// acknowledgements must still hold — this is the test that catches a
// commit acknowledged before its fsync actually happened.
func TestCrashRecoveryDropUnsynced(t *testing.T) {
	const docs = 8
	h := runIngestHistory(t, docs)

	for k, ops := range h.ackOps {
		img := h.disk.CrashDiskDropUnsynced(ops)
		checkRecovered(t, h, img, k+1, fmt.Sprintf("drop-unsynced@op%d", ops))
	}
	// Random cut points between acks: no prefix guarantee beyond the
	// last ack, but recovery must still produce a consistent prefix.
	rng := rand.New(rand.NewSource(7))
	last := h.ackOps[len(h.ackOps)-1]
	first := h.ackOps[0]
	for i := 0; i < 16; i++ {
		cut := first + uint64(rng.Int63n(int64(last-first+1)))
		img := h.disk.CrashDiskDropUnsynced(cut)
		checkRecovered(t, h, img, h.ackedAtOp(cut), fmt.Sprintf("drop-unsynced@op%d", cut))
	}
}

func (h *ingestHistory) ackedAtOp(op uint64) int {
	n := 0
	for _, w := range h.ackOps {
		if w <= op {
			n++
		}
	}
	return n
}

// TestCrashRecoveryIdempotent recovers the same image twice: recovery
// itself must leave a state that recovers to the identical catalog (a
// crash during recovery's own checkpoint is just another crash).
func TestCrashRecoveryIdempotent(t *testing.T) {
	h := runIngestHistory(t, 6)
	cut := h.ackBytes[3] + 5
	img := h.disk.CrashDiskAtBytes(cut)

	first := checkRecovered(t, h, img, h.ackedBefore(cut), "first recovery")
	// checkRecovered inserted post-crash.xml and closed cleanly; the
	// image now holds first+1 documents and must reopen to exactly that.
	dbf, _ := img.Open("db")
	wf, _ := img.Open("wal")
	db, err := OpenOnFiles(dbf, wf, Options{PoolPages: 64})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	defer db.Close()
	if got := len(db.Documents()); got != first+1 {
		t.Fatalf("second recovery found %d documents, want %d", got, first+1)
	}
}

// TestCrashRecoveryDeletes mixes deletes into the history and checks a
// full-history crash image recovers the exact final catalog.
func TestCrashRecoveryDeletes(t *testing.T) {
	disk := crashfs.New()
	dbf, _ := disk.Create("db")
	wf, _ := disk.Create("wal")
	db, err := CreateOnFiles(dbf, wf, Options{PageSize: 1024, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("doc-%d.xml", i)
		root := crashDoc(t, i)
		if _, err := db.InsertDocument(name, root, SyncAlways); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := xmltree.Serialize(&out, root); err != nil {
			t.Fatal(err)
		}
		want[name] = out.String()
	}
	for _, name := range []string{"doc-1.xml", "doc-4.xml"} {
		if err := db.DeleteDocument(name, SyncAlways); err != nil {
			t.Fatal(err)
		}
		delete(want, name)
	}

	img := disk.CrashDiskAtBytes(disk.Bytes())
	rdbf, _ := img.Open("db")
	rwf, _ := img.Open("wal")
	rdb, err := OpenOnFiles(rdbf, rwf, Options{PoolPages: 64})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rdb.Close()
	if got := len(rdb.Documents()); got != len(want) {
		t.Fatalf("recovered %d documents, want %d (%v)", got, len(want), docNames(rdb.Documents()))
	}
	for _, d := range rdb.Documents() {
		ref, ok := want[d.Name]
		if !ok {
			t.Fatalf("deleted document %s came back", d.Name)
		}
		if got := serializeDoc(t, rdb, d); got != ref {
			t.Fatalf("%s: recovered bytes differ", d.Name)
		}
	}
}

// TestIngestWriteFaults injects clean and short write failures into
// the WAL mid-commit and asserts the failed transaction aborts without
// poisoning the database: the catalog is unchanged and later commits
// (after the fault clears) succeed and survive a crash.
func TestIngestWriteFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		short bool
	}{
		{"clean-fail", false},
		{"short-write", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := crashfs.New()
			dbf, _ := disk.Create("db")
			wf, _ := disk.Create("wal")
			db, err := CreateOnFiles(dbf, wf, Options{PageSize: 1024, PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.InsertDocument("keep.xml", crashDoc(t, 0), SyncAlways); err != nil {
				t.Fatal(err)
			}

			wf.SetWriteLimit(64, tc.short)
			if _, err := db.InsertDocument("doomed.xml", crashDoc(t, 1), SyncAlways); err == nil {
				t.Fatal("insert succeeded with a failing WAL")
			}
			wf.ClearWriteLimit()

			if got := len(db.Documents()); got != 1 {
				t.Fatalf("catalog has %d documents after aborted insert, want 1", got)
			}
			if _, err := db.InsertDocument("after.xml", crashDoc(t, 2), SyncAlways); err != nil {
				t.Fatalf("insert after cleared fault: %v", err)
			}

			img := disk.CrashDiskAtBytes(disk.Bytes())
			rdbf, _ := img.Open("db")
			rwf, _ := img.Open("wal")
			rdb, err := OpenOnFiles(rdbf, rwf, Options{PoolPages: 64})
			if err != nil {
				t.Fatalf("recovery after fault: %v", err)
			}
			defer rdb.Close()
			if got := docNames(rdb.Documents()); len(got) != 2 || got[0] != "keep.xml" || got[1] != "after.xml" {
				t.Fatalf("recovered catalog %v, want [keep.xml after.xml]", got)
			}
		})
	}
}
