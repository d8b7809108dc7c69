package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/tax"
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
// the WAL, every query entry point run concurrently returns bytes
// identical to the quiesced run. The inputs are Run under groupby,
// direct and direct-batch (traced), ExecPhysical and ExecLogical of
// Query 1's plans, match.Open drained under the binary and the twig
// matcher, and match.MatchKindObs on a snapshot the reader pins — each
// at parallelism 1 and 4. Run under -race by make race.
func TestConcurrentIngestByteIdentity(t *testing.T) {
	db := sampleDB(t)
	naive, rewritten, spec := plansFor(t, query1Src)
	pt, err := pattern.ParseTree("$1 [tag=article]\n  pc $2 [tag=author & content=\"Jack\"]\n  pc $3 [tag=title]")
	if err != nil {
		t.Fatal(err)
	}

	runSpec := func(st Strategy) func(*testing.T, int, string) (string, error) {
		return func(t *testing.T, p int, trace string) (string, error) {
			s := spec
			s.Strategy = st
			o := Options{Parallelism: p}
			if trace != "" {
				o.Tracer = db.NewTracer(trace)
			}
			res, err := Run(db, s, o)
			if err != nil {
				return "", err
			}
			return serializeResult(t, res.Trees), nil
		}
	}
	collection := func(c tax.Collection, err error) (string, error) {
		return strings.Join(c.Strings(), "\n"), err
	}
	bindings := func(bs []match.DBBinding) string {
		var b strings.Builder
		for _, bnd := range bs {
			for _, l := range pt.Labels() {
				fmt.Fprintf(&b, "%s=%v ", l, bnd[l])
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	drain := func(kind match.MatcherKind) func(*testing.T, int, string) (string, error) {
		return func(*testing.T, int, string) (string, error) {
			m, err := match.Open(db, pt, kind)
			if err != nil {
				return "", err
			}
			var bs []match.DBBinding
			for b, ok := m.Next(); ok; b, ok = m.Next() {
				bs = append(bs, b.Clone())
			}
			return bindings(bs), errors.Join(m.Err(), m.Close())
		}
	}
	inputs := []struct {
		name string
		run  func(t *testing.T, p int, trace string) (string, error)
	}{
		{"groupby", runSpec(StrategyGroupBy)},
		{"direct", runSpec(StrategyDirect)},
		{"direct-batch", runSpec(StrategyDirectBatch)},
		{"physical", func(_ *testing.T, p int, _ string) (string, error) {
			return collection(ExecPhysical(db, rewritten, Options{Parallelism: p}))
		}},
		{"logical", func(*testing.T, int, string) (string, error) {
			return collection(ExecLogical(db, naive))
		}},
		{"open-binary", drain(match.MatcherBinary)},
		{"open-twig", drain(match.MatcherTwig)},
		{"match-kind", func(_ *testing.T, p int, _ string) (string, error) {
			sn := db.Snapshot()
			defer sn.Close()
			bs, _, err := match.MatchKindObs(context.Background(), sn, pt, match.MatcherAuto, p, nil)
			return bindings(bs), err
		}},
	}
	parallelisms := []int{1, 4}
	key := func(i, p int) string { return fmt.Sprintf("%s/p%d", inputs[i].name, p) }
	want := map[string]string{}
	for i, in := range inputs {
		for _, p := range parallelisms {
			got, err := in.run(t, p, "")
			if err != nil {
				t.Fatalf("quiesced %s: %v", key(i, p), err)
			}
			if got == "" {
				t.Fatalf("quiesced %s: empty result, the input checks nothing", key(i, p))
			}
			want[key(i, p)] = got
		}
	}

	// Writers insert and delete until every reader is done (and at least
	// minDocs documents each), so queries overlap commits, retirement
	// and reclamation.
	const writers, minDocs, readers, rounds = 2, 10, 4, 2
	var (
		wg, wwg           sync.WaitGroup
		inserted, deleted atomic.Int64
	)
	stop := make(chan struct{})
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		w := w
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for i := 0; ; i++ {
				if i >= minDocs {
					select {
					case <-stop:
						return
					default:
					}
				}
				name := fmt.Sprintf("sidecar-%d-%d.xml", w, i)
				if _, err := db.InsertDocument(name, sidecarDoc(t, w, i), storage.SyncGroup); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
				inserted.Add(1)
				// Delete every other document: retire/reclaim runs while
				// reader snapshots still pin older epochs.
				if i%2 == 1 {
					if err := db.DeleteDocument(name, storage.SyncGroup); err != nil {
						errs <- fmt.Errorf("writer %d delete: %v", w, err)
						return
					}
					deleted.Add(1)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := len(inputs) * len(parallelisms)
			for k := 0; k < rounds*n; k++ {
				j := (r + k) % n
				i, p := j/len(parallelisms), parallelisms[j%len(parallelisms)]
				got, err := inputs[i].run(t, p, fmt.Sprintf("reader-%d-%d", r, k))
				if err != nil {
					errs <- fmt.Errorf("reader %d %s: %v", r, key(i, p), err)
					return
				}
				if got != want[key(i, p)] {
					errs <- fmt.Errorf("reader %d %s: bytes differ from quiesced run under concurrent ingest", r, key(i, p))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	wwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ic := db.IngestCounters()
	t.Logf("%d documents inserted and %d deleted under %d reader queries", inserted.Load(), deleted.Load(), readers*rounds*len(want))
	if ic.DocumentsInserted != uint64(inserted.Load()) || inserted.Load() == 0 {
		t.Errorf("inserted counter = %d, writers inserted %d", ic.DocumentsInserted, inserted.Load())
	}
	if ic.DocumentsDeleted != uint64(deleted.Load()) {
		t.Errorf("deleted counter = %d, writers deleted %d", ic.DocumentsDeleted, deleted.Load())
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
