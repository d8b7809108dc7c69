package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"timber/internal/pagestore"
	"timber/internal/storage"
)

// config carries the run's arguments to the workloads.
type config struct {
	seed    int64
	seconds float64
	// scale multiplies every corpus size; 1 is the benchmark, the smoke
	// test runs at 0.02.
	scale float64
	// workDir holds database files, scratch files and the server's
	// log; the harness creates and removes it.
	workDir string
	// serveBin is the timber-serve binary run.sh built.
	serveBin string
	// procs is GOMAXPROCS for the harness and the server: min(nproc, 4).
	procs int
	// failures collects why operations failed, for the report.
	failures *failureLog
}

// failureLog keeps the first few failure reasons of a run; the counts
// are in ops_failed, the reasons are for whoever has to find the cause.
type failureLog struct {
	mu   sync.Mutex
	msgs []string
}

const maxFailureNotes = 8

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.msgs) < maxFailureNotes {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (c config) scaled(n int) int {
	v := int(float64(n) * c.scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Corpus and pool sizes at scale 1. They are smaller than the paper's
// (440 k articles) because a run has to set up three times, compute a
// logical reference and still put 200 or more operations into a 20 s
// window, so that ten samples lie beyond the 95th percentile.
const (
	// queryArticles gives ~113 k nodes in a ~9.8 MB file.
	queryArticles = 12000
	// warmPoolPages (32 MiB, the paper's pool) holds the whole file.
	warmPoolPages = 4096
	// coldPoolPages (2.5 MiB) is about a quarter of the file, the
	// paper's pool:data regime.
	coldPoolPages = 320
	// twigDocs x twigArticlesPerDoc: every document after the first is
	// loaded node by node (~120 us each), which caps the corpus at what
	// three set-ups per run can afford; one cycle of the three patterns
	// then takes about 15 ms.
	twigDocs           = 32
	twigArticlesPerDoc = 250
	// serveArticles keeps one E1 + E2 alternation over HTTP (query,
	// JSON encode, transfer, decode) near 75 ms.
	serveArticles = 4000
)

// counters is a snapshot of the public counters the per-operation
// layer metrics are taken from; deltas over a window divided by its
// operations give the metrics.
type counters struct {
	pool        pagestore.Stats
	walBytes    uint64
	walCommits  uint64
	walFsyncs   uint64
	cacheHits   int64
	cacheMisses int64
	requests    int64
	rejected    int64
}

// workload is one set of inputs the benchmark runs. The harness calls
// setup (timed, several times, each followed by close except the
// last), reference, then start, the windows, stop and close.
type workload interface {
	// setup generates the corpus, loads it, builds the statistics and
	// opens the engine or starts the server — everything before the
	// first timed operation. Its wall time is setup_s.
	setup() error
	// reference computes the expected result of every operation with
	// the reference evaluator. Not part of setup_s: it is the
	// harness's work, not the system's.
	reference() error
	// start and stop bracket the windows; only the serve workload has
	// something running beside the timed client.
	start() error
	// stop ends the background work and returns its operation counts
	// and metrics (nil when there is none).
	stop() (attempted, failed int, extra map[string]float64)
	// op runs the i-th read operation untraced and returns the timed
	// part of it and whether the result matched the reference.
	op(i int) (time.Duration, bool)
	// tracedOp runs the i-th read operation, then replays its stages
	// and records the spans. It returns what op returns.
	tracedOp(i int, t *trace) (time.Duration, bool)
	// tracedMetrics adds, after the windows, the layer metrics that
	// belong to the workload's own operation (exec, match, HTTP).
	tracedMetrics(out map[string]float64) error
	// counters snapshots the layer counters.
	counters() (counters, error)
	// layerDB is an in-process database holding the workload's corpus,
	// for the layer microbenchmarks.
	layerDB() *storage.DB
	// facts describes the loaded corpus and the stored size.
	facts() workloadFacts
	close() error
}

// workloadFacts is what the result file records about a workload's
// data and configuration.
type workloadFacts struct {
	Corpus      corpusDigest `json:"corpus"`
	StoredBytes int64        `json:"stored_bytes"`
	PageSize    int          `json:"page_size"`
	PoolPages   int          `json:"pool_pages"`
	Codec       string       `json:"codec"`
	SyncPolicy  string       `json:"sync_policy"`
	Clients     int          `json:"clients"`
	// Labels are the planner's choices (strategy, matcher) per query.
	Labels map[string]string `json:"labels,omitempty"`
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case wlE1:
		return &queryWorkload{cfg: cfg, name: name, text: queryTitles, poolPages: warmPoolPages}, nil
	case wlE2:
		return &queryWorkload{cfg: cfg, name: name, text: queryCount, poolPages: coldPoolPages, cold: true}, nil
	case wlTwig:
		return &twigWorkload{cfg: cfg}, nil
	case wlServe:
		if cfg.serveBin == "" {
			return nil, fmt.Errorf("%s needs the timber-serve binary: run the benchmark through benchmark/run.sh, or pass -serve-bin", name)
		}
		return &serveWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// createDB creates a fresh database file named after the workload in
// the work directory, replacing the previous set-up's file.
func createDB(cfg config, name string, poolPages int) (*storage.DB, string, error) {
	path := filepath.Join(cfg.workDir, name+".timber")
	for _, p := range []string{path, path + ".wal"} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, "", err
		}
	}
	db, err := storage.Create(path, storage.Options{PageSize: pagestore.DefaultPageSize, PoolPages: poolPages})
	return db, path, err
}

// loadCorpus bulk-loads every document and builds the planner's
// statistics, the way timber-load followed by a first query would.
func loadCorpus(db *storage.DB, c *corpus) error {
	for i, d := range c.Docs {
		if _, err := db.LoadDocument(c.Names[i], d); err != nil {
			return fmt.Errorf("load %s: %w", c.Names[i], err)
		}
	}
	if _, err := db.BuildCardStats(storage.SyncNone); err != nil {
		return fmt.Errorf("build statistics: %w", err)
	}
	return nil
}

func dbFacts(db *storage.DB, c *corpus, poolPages int) workloadFacts {
	return workloadFacts{
		Corpus:      c.corpusDigest,
		StoredBytes: int64(db.NumPages()) * int64(pagestore.DefaultPageSize),
		PageSize:    pagestore.DefaultPageSize,
		PoolPages:   poolPages,
		Codec:       pagestore.LZ().Name(),
		SyncPolicy:  db.DefaultSyncPolicy().String(),
		Clients:     1,
	}
}

func dbCounters(db *storage.DB) counters {
	w := db.WALStats()
	return counters{pool: db.Stats(), walBytes: w.AppendedBytes, walCommits: w.Commits, walFsyncs: w.Fsyncs}
}

// noBackground is embedded by the workloads whose only client is the
// timed one.
type noBackground struct{}

func (noBackground) start() error                         { return nil }
func (noBackground) stop() (int, int, map[string]float64) { return 0, 0, nil }
