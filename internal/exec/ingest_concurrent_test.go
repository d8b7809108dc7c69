package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

func serializeResult(t *testing.T, trees []*xmltree.Node) string {
	t.Helper()
	var b strings.Builder
	for _, tr := range trees {
		if err := xmltree.Serialize(&b, tr); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func sidecarDoc(t *testing.T, w, i int) *xmltree.Node {
	t.Helper()
	root, err := xmltree.ParseString(fmt.Sprintf(
		`<sidecar id="%d-%d"><payload>writer %d item %d</payload></sidecar>`, w, i, w, i))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestConcurrentIngestByteIdentity is the snapshot-isolation
// acceptance check: while writers insert and delete documents through
// the WAL, every concurrently executing query — streaming groupby and
// the materializing batch direct plan, at parallelism 1 and 4, with
// tracing on — returns bytes identical to the quiesced run. Run under
// -race by make race.
func TestConcurrentIngestByteIdentity(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)

	strategies := []Strategy{StrategyGroupBy, StrategyDirectBatch}
	parallelisms := []int{1, 4}
	want := map[string]string{}
	for _, st := range strategies {
		for _, p := range parallelisms {
			s := spec
			s.Strategy = st
			res, err := Run(db, s, Options{Parallelism: p})
			if err != nil {
				t.Fatalf("quiesced %v/p%d: %v", st, p, err)
			}
			want[fmt.Sprintf("%v/p%d", st, p)] = serializeResult(t, res.Trees)
		}
	}

	const writers, docsPerWriter, readers, iters = 2, 10, 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				name := fmt.Sprintf("sidecar-%d-%d.xml", w, i)
				if _, err := db.InsertDocument(name, sidecarDoc(t, w, i), storage.SyncGroup); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
				// Delete every other document: retire/reclaim runs while
				// reader snapshots still pin older epochs.
				if i%2 == 1 {
					if err := db.DeleteDocument(name, storage.SyncGroup); err != nil {
						errs <- fmt.Errorf("writer %d delete: %v", w, err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st := strategies[(r+i)%len(strategies)]
				p := parallelisms[(r+i)%len(parallelisms)]
				s := spec
				s.Strategy = st
				res, err := Run(db, s, Options{Parallelism: p, Tracer: db.NewTracer(fmt.Sprintf("reader-%d-%d", r, i))})
				if err != nil {
					errs <- fmt.Errorf("reader %d iter %d: %v", r, i, err)
					return
				}
				key := fmt.Sprintf("%v/p%d", st, p)
				if got := serializeResult(t, res.Trees); got != want[key] {
					errs <- fmt.Errorf("reader %d iter %d (%s): bytes differ from quiesced run under concurrent ingest", r, i, key)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ic := db.IngestCounters()
	if ic.DocumentsInserted != writers*docsPerWriter {
		t.Errorf("inserted counter = %d, want %d", ic.DocumentsInserted, writers*docsPerWriter)
	}
	if ic.DocumentsDeleted != writers*docsPerWriter/2 {
		t.Errorf("deleted counter = %d, want %d", ic.DocumentsDeleted, writers*docsPerWriter/2)
	}
	if ic.SnapshotsPinned != 0 {
		t.Errorf("snapshots still pinned after drain: %d", ic.SnapshotsPinned)
	}
	// Quiesced again: the surviving sidecars don't intersect the query
	// pattern, so results still match the original reference.
	res, err := Run(db, spec, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := serializeResult(t, res.Trees); got != want["groupby/p4"] {
		t.Error("post-ingest quiesced run differs from pre-ingest reference")
	}
}

// TestSpoolCancellationHammer runs the spilling GROUPBY under a
// barrage of cancellation points and asserts no spill run outlives its
// query: the leak counter stays zero, every spilled page is freed, and
// the store's page count reaches a steady state instead of growing
// with each cancelled query.
func TestSpoolCancellationHammer(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)

	hammer := func() {
		// A mix of pre-cancelled, racing, and completing queries; tiny
		// SortMemRows forces a spill run every few input rows.
		for i := 0; i < 20; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			switch i % 3 {
			case 0:
				cancel() // dead on arrival
			case 1:
				time.AfterFunc(time.Duration(i%5)*50*time.Microsecond, cancel)
			}
			_, err := Run(db, spec, Options{SortMemRows: 4, BatchSize: 8, Ctx: ctx, Parallelism: 1 + i%2})
			if i%3 == 2 && err != nil {
				t.Fatalf("uncancelled run %d: %v", i, err)
			}
			cancel()
		}
	}
	hammer()
	steady := db.NumPages()
	hammer()
	ic := db.IngestCounters()
	if ic.SpoolRuns == 0 {
		t.Fatal("hammer never spilled; SortMemRows too high to exercise the spool")
	}
	if ic.SpoolRunsLeaked != 0 {
		t.Errorf("spool_runs_leaked = %d after cancellation hammer", ic.SpoolRunsLeaked)
	}
	if ic.SpoolPagesFreed == 0 {
		t.Error("no spool pages freed")
	}
	if got := db.NumPages(); got != steady {
		t.Errorf("page count grew across hammer rounds: %d -> %d (spool pages leaking)", steady, got)
	}
}
