// Command timber-serve is the long-lived query service over a timber
// database: it opens the database once, compiles queries through the
// engine facade's LRU plan cache, and serves concurrent clients over
// HTTP/JSON with per-request timeouts, admission control and graceful
// drain on SIGTERM/SIGINT.
//
// Usage:
//
//	timber-serve -db bib.timber -addr :8080
//	timber-serve -db bib.timber -slowquery 250ms -logjson
//	curl -s 'localhost:8080/query?q=FOR+$a+IN+...'
//	curl -s localhost:8080/query -d '{"query": "FOR $a IN ...", "strategy": "groupby"}'
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics
//	curl -s -X POST --data-binary @new.xml 'localhost:8080/ingest?name=new.xml&sync=always'
//	curl -s -X DELETE 'localhost:8080/ingest?name=new.xml'
//
// Endpoints:
//
//	POST /query  {"query": ..., "strategy"?: ..., "matcher"?: ..., "timeout_ms"?: ..., "parallelism"?: ...}
//	GET  /query?q=...&strategy=...&matcher=...&timeout_ms=...
//	     strategy "" or auto runs groupby when the grouping rewrite
//	     applies, else physical; matcher selects the physical plan's
//	     pattern matcher (auto = twig when every pattern node is
//	     tagged, else binary; binary, twig override — byte-identical
//	     results either way).
//	     200 JSON result; 400 malformed query/strategy/matcher; 504 per-request
//	     timeout exceeded; 429 admission limit reached (Retry-After: 1);
//	     503 buffer pool exhausted (Retry-After: 1); 405 for other methods. Every response carries an X-Query-ID
//	     header that matches the structured request log.
//	POST   /ingest?name=NAME[&sync=always|group|none]  body: XML document.
//	DELETE /ingest?name=NAME[&sync=always|group|none]
//	     Durable writes through the WAL; queries already in flight keep
//	     reading their pinned snapshot. sync selects the per-request
//	     fsync policy (default: the -sync flag). 200 JSON receipt with
//	     the committed epoch; 400 parse/bad sync; 404 unknown document
//	     on DELETE; 409 duplicate name on POST; 429 admission limit.
//	GET  /stats    buffer-pool, plan-cache and catalog state as JSON.
//	GET  /metrics  Prometheus text exposition (counters, gauges, latency
//	               histograms, Go runtime stats); ?format=text selects
//	               the terse name-value format instead.
//	GET  /debug/events     event journal as JSON lines (?type=, ?qid=,
//	                       ?since=SEQ, ?limit=N filter; ?schema=1 lists
//	                       the registered event taxonomy).
//	GET  /debug/flight     flight recorder: recent query records with
//	                       operator traces, WAL/checkpoint correlation
//	                       and EXPLAIN joins (?qid= selects one).
//	GET  /debug/anomalies  the last-K error/anomaly events.
//	GET  /debug/storage    epoch, commit/durability watermarks, pinned
//	                       snapshots, WAL tail, reclaim backlog.
//	GET  /debug/pprof/...  net/http/pprof, mounted only under -debug.
//
// Observability: every request is logged as one structured log/slog
// line (text by default, JSON with -logjson) carrying the query ID,
// method, path, status and latency. Every query is traced, its span
// tree rooted at the same query ID, and files one flight record that
// /debug/flight?qid= serves. With -slowquery D, any execution taking
// at least D additionally logs a "slow query" line whose trace field
// holds that full per-operator span tree, plus the WAL commit window
// and checkpoint count the run overlapped. -events N sizes the
// in-memory event journal the storage engine, WAL, planner and query
// engine write into (0 disables it and every /debug journal endpoint
// answers 503). On panic or SIGQUIT the journal is dumped to a
// timestamped JSON-lines file in -crashdump's directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"timber/internal/engine"
	"timber/internal/obs"
	"timber/internal/pagestore"
	"timber/internal/storage"
)

func main() {
	dbPath := flag.String("db", "timber.db", "database file")
	addr := flag.String("addr", "localhost:8080", "listen address")
	poolMB := flag.Int("poolmb", 32, "buffer pool size in MiB")
	parallel := flag.Int("parallel", 0, "per-query worker bound (0 = GOMAXPROCS, 1 = sequential)")
	cacheSize := flag.Int("cache", engine.DefaultCacheSize, "prepared-plan cache capacity (distinct query texts)")
	maxInFlight := flag.Int("maxinflight", 64, "admission limit on concurrently executing queries (0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request timeout")
	maxTimeout := flag.Duration("maxtimeout", 5*time.Minute, "cap on client-requested timeouts")
	drainTimeout := flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight requests")
	slowQuery := flag.Duration("slowquery", 0, "log one structured line with the full operator trace for executions at or above this duration (0 = disabled, e.g. 250ms)")
	events := flag.Int("events", obs.DefaultJournalEvents, "event journal capacity in events (0 = journal disabled)")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (off by default; /debug/events etc. are always on)")
	crashDump := flag.String("crashdump", ".", "directory for panic/SIGQUIT event-journal dumps")
	logJSON := flag.Bool("logjson", false, "write the structured request log as JSON lines (default logfmt-style text)")
	syncFlag := flag.String("sync", "group", "default WAL fsync policy for /ingest writes: always, group, or none (per-request ?sync= overrides)")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	cfg := config{
		maxInFlight:    *maxInFlight,
		defaultTimeout: *timeout,
		maxTimeout:     *maxTimeout,
		parallelism:    *parallel,
		slowQuery:      *slowQuery,
		debug:          *debug,
		crashDir:       *crashDump,
		logger:         logger,
	}
	var journal *obs.Journal
	if *events > 0 {
		journal = obs.NewJournal(*events)
	}
	syncPol, err := storage.ParseSyncPolicy(*syncFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "timber-serve:", err)
		os.Exit(2)
	}
	if err := run(*dbPath, *addr, *poolMB, *cacheSize, cfg, *drainTimeout, syncPol, journal); err != nil {
		fmt.Fprintln(os.Stderr, "timber-serve:", err)
		os.Exit(1)
	}
}

func run(dbPath, addr string, poolMB, cacheSize int, cfg config, drainTimeout time.Duration, syncPol storage.SyncPolicy, journal *obs.Journal) (err error) {
	// The journal goes in through storage.Options so recovery events
	// fired during Open land in it too.
	db, err := storage.Open(dbPath, storage.Options{
		PoolPages:  poolMB * 1024 * 1024 / pagestore.DefaultPageSize,
		SyncPolicy: syncPol,
		Journal:    journal,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	eng := engine.New(db, engine.Options{CacheSize: cacheSize, Parallelism: cfg.parallelism})
	srv := newServer(eng, cfg)
	httpSrv := &http.Server{Addr: addr, Handler: srv.handler()}

	// Graceful drain: on SIGTERM/SIGINT stop accepting connections,
	// let in-flight queries finish (bounded by drainTimeout), then
	// close the database.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// SIGQUIT dumps the event journal to a timestamped file and keeps
	// serving — the live-debugging analogue of the Go runtime's
	// goroutine dump (which this intercepts; use SIGABRT for that).
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			srv.dumpJournal("sigquit")
		}
	}()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "timber-serve: serving %s (%d documents) on http://%s\n",
			dbPath, len(db.Documents()), addr)
		if serr := httpSrv.ListenAndServe(); serr != nil && serr != http.ErrServerClosed {
			errc <- serr
			return
		}
		errc <- nil
	}()

	select {
	case serr := <-errc:
		return serr
	case <-ctx.Done():
	}
	srv.setDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if serr := httpSrv.Shutdown(shutdownCtx); serr != nil {
		return fmt.Errorf("drain: %w", serr)
	}
	return <-errc
}
