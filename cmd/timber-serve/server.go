package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/pagestore"
)

// config carries the service knobs from flags (or tests) to the server.
type config struct {
	// maxInFlight bounds concurrently executing queries; requests past
	// the bound are rejected with 429 rather than queued, so a burst
	// degrades loudly instead of stacking latency. <= 0 means no bound.
	maxInFlight int
	// defaultTimeout applies to requests that do not set timeout_ms.
	defaultTimeout time.Duration
	// maxTimeout caps client-requested timeouts.
	maxTimeout time.Duration
	// parallelism is the per-query worker bound (0 = GOMAXPROCS).
	parallelism int
	// slowQuery, when positive, is the threshold at or above which an
	// execution emits one structured log line — query ID, query text,
	// full operator trace. Every query is traced regardless.
	slowQuery time.Duration
	// debug mounts net/http/pprof on the /debug mux. Off by default:
	// profiling endpoints are an explicit operator choice.
	debug bool
	// crashDir is where panic/SIGQUIT journal dumps land ("" = cwd).
	crashDir string
	// logger receives the structured request log. Nil discards (tests);
	// main wires os.Stderr.
	logger *slog.Logger
}

// server is the HTTP face of an engine. Handlers are safe for
// concurrent use — all mutable state is the admission semaphore and
// registry metrics.
type server struct {
	eng *engine.Engine
	cfg config
	sem chan struct{}

	requests *obs.Metric
	okCount  *obs.Metric
	badReqs  *obs.Metric
	timeouts *obs.Metric
	rejected *obs.Metric

	// httpSeconds and httpResponses are the request-level families
	// every endpoint reports into through the instrument middleware;
	// inFlight/draining are the liveness gauges a dashboard alerts on.
	httpSeconds   *obs.HistogramVec
	httpResponses *obs.CounterVec
	inFlight      *obs.Gauge
	draining      *obs.Gauge
	logger        *slog.Logger

	// execute runs a prepared query; tests replace it to script
	// timeouts and backpressure deterministically.
	execute func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error)
}

func newServer(eng *engine.Engine, cfg config) *server {
	if cfg.defaultTimeout <= 0 {
		cfg.defaultTimeout = 30 * time.Second
	}
	if cfg.maxTimeout <= 0 {
		cfg.maxTimeout = 5 * time.Minute
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := eng.Registry()
	obs.RegisterRuntimeMetrics(reg)
	s := &server{
		eng:      eng,
		cfg:      cfg,
		requests: reg.Counter("serve_requests"),
		okCount:  reg.Counter("serve_ok"),
		badReqs:  reg.Counter("serve_bad_request"),
		timeouts: reg.Counter("serve_timeout"),
		rejected: reg.Counter("serve_rejected"),
		httpSeconds: reg.HistogramVec("http_request_seconds",
			"HTTP request latency by endpoint.", obs.DefaultLatencyBuckets, "path"),
		httpResponses: reg.CounterVec("http_responses_total",
			"HTTP responses by endpoint and status code.", "path", "code"),
		inFlight: reg.Gauge("serve_in_flight", "Requests currently being served."),
		draining: reg.Gauge("serve_draining", "1 while the server drains for shutdown."),
		logger:   cfg.logger,
		execute: func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error) {
			return pq.Execute(ctx, o)
		},
	}
	if cfg.maxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.maxInFlight)
	}
	return s
}

// handler builds the route table, wrapped in the instrument middleware.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	// The introspection tree lives on its own mux so the query routes
	// and the debug routes can never shadow each other (and pprof, when
	// enabled, only ever mounts there).
	mux.Handle("/debug/", s.debugHandler())
	return s.instrument(mux)
}

// setDraining flips the drain gauge; main calls it when shutdown
// begins so a scraper can tell a draining instance from a dead one.
func (s *server) setDraining() {
	s.draining.Set(1)
	s.logger.Info("draining")
}

// metricPath maps a request path to its metric label. Only the fixed
// route set appears verbatim — arbitrary client paths must not mint
// unbounded label values.
func metricPath(p string) string {
	switch p {
	case "/query", "/ingest", "/stats", "/metrics":
		return p
	}
	if strings.HasPrefix(p, "/debug/") {
		return "debug"
	}
	return "other"
}

// statusRecorder captures the response status for the request log and
// the http_responses_total code label.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.code == 0 {
		rec.code = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return rec.ResponseWriter.Write(b)
}

func (rec *statusRecorder) status() int {
	if rec.code == 0 {
		return http.StatusOK
	}
	return rec.code
}

// instrument is the request middleware: it mints the query ID (echoed
// in the X-Query-ID header and carried through the context into the
// engine), times the request into http_request_seconds{path}, counts
// the response into http_responses_total{path,code}, tracks the
// in-flight gauge, and writes one structured log line per request.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		qid := obs.NewQueryID()
		w.Header().Set("X-Query-ID", qid)
		rec := &statusRecorder{ResponseWriter: w}
		s.inFlight.Inc()
		defer func() {
			// Crash-time dump: flush the journal's tail to disk before the
			// panic propagates (net/http recovers handler panics, but the
			// in-memory journal would be useless by the time anyone looks).
			if p := recover(); p != nil {
				s.journal().Emit(obs.Event{Type: obs.EvQueryError, QID: qid, Err: fmt.Sprintf("panic: %v", p)})
				s.dumpJournal("panic")
				panic(p)
			}
		}()
		next.ServeHTTP(rec, r.WithContext(obs.WithQueryID(r.Context(), qid)))
		s.inFlight.Dec()
		elapsed := time.Since(start)
		path := metricPath(r.URL.Path)
		s.httpSeconds.With(path).ObserveDuration(elapsed)
		s.httpResponses.With(path, strconv.Itoa(rec.status())).Inc()
		s.logger.Info("request",
			"qid", qid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status(),
			"elapsed_ms", float64(elapsed.Microseconds())/1000)
	})
}

// queryRequest is the /query request body (POST) or query-parameter
// set (GET: q, strategy, matcher, timeout_ms, parallelism, explain).
type queryRequest struct {
	// Query is the XQuery-subset text to run.
	Query string `json:"query"`
	// Strategy names an exec.Strategy ("" = auto: groupby when the
	// grouping rewrite applies, else physical; an explicit name is an
	// override).
	Strategy string `json:"strategy,omitempty"`
	// Matcher names the pattern matcher for the physical plan ("" or
	// "auto" = twig when every pattern node is tagged, else binary;
	// "binary"/"twig" are overrides). Results are byte-identical across
	// matchers.
	Matcher string `json:"matcher,omitempty"`
	// TimeoutMS overrides the service's default per-request timeout,
	// capped at the configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Parallelism overrides the per-query worker bound.
	Parallelism int `json:"parallelism,omitempty"`
	// Explain requests the EXPLAIN report alongside the result: the
	// strategy (and, for physical runs, the matcher) that ran, and the
	// planner's per-operator estimates joined against the run's actual
	// row counts (GET: ?explain=1).
	Explain bool `json:"explain,omitempty"`
}

// queryResponse is the /query success body. Trees carries the result
// serialized exactly as `timber query` prints it, so the two paths are
// byte-comparable.
type queryResponse struct {
	Trees    string `json:"trees"`
	Count    int    `json:"count"`
	Strategy string `json:"strategy"`
	// Matcher is the pattern matcher the physical plan ran (absent for
	// strategies that do not drive package match).
	Matcher   string  `json:"matcher,omitempty"`
	CacheHit  bool    `json:"cache_hit"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Explain is present when the request asked for it.
	Explain *engine.Explain `json:"explain,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// queryErrorStatus maps a failed query's error to its HTTP status: 504
// for a timeout or cancellation, 503 for buffer-pool exhaustion (every
// frame pinned by concurrent work — transient, so the client is asked
// to retry), 500 for anything else.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, pagestore.ErrPoolExhausted):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *server) parseRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		req.Strategy = q.Get("strategy")
		req.Matcher = q.Get("matcher")
		if v := q.Get("timeout_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad timeout_ms %q", v)
			}
			req.TimeoutMS = n
		}
		if v := q.Get("parallelism"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad parallelism %q", v)
			}
			req.Parallelism = n
		}
		if v := q.Get("explain"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return req, fmt.Errorf("bad explain %q", v)
			}
			req.Explain = b
		}
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %v", err)
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	if req.Query == "" {
		return req, errors.New("missing query (POST {\"query\": ...} or GET ?q=...)")
	}
	return req, nil
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	req, err := s.parseRequest(r)
	if err != nil {
		s.badReqs.Inc()
		status := http.StatusBadRequest
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			status = http.StatusMethodNotAllowed
			w.Header().Set("Allow", "GET, POST")
		}
		writeError(w, status, "%v", err)
		return
	}

	// Admission control before any work: a full service sheds load
	// with 429 + Retry-After instead of queueing unboundedly.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.rejected.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server at capacity (%d queries in flight)", s.cfg.maxInFlight)
			return
		}
	}

	var eo engine.ExecOptions
	if req.Strategy != "" {
		strat, err := exec.ParseStrategy(req.Strategy)
		if err != nil {
			s.badReqs.Inc()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		eo.Strategy = strat
	}
	if req.Matcher != "" {
		mkind, err := match.ParseMatcher(req.Matcher)
		if err != nil {
			s.badReqs.Inc()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		eo.Matcher = mkind
	}
	eo.Parallelism = req.Parallelism
	if eo.Parallelism == 0 {
		eo.Parallelism = s.cfg.parallelism
	}

	timeout := s.cfg.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.maxTimeout {
		timeout = s.cfg.maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	pq, cacheHit, err := s.eng.PrepareCached(req.Query)
	if err != nil {
		s.badReqs.Inc()
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Every execution runs under a wall-clock-only tracer whose root
	// span is named by the request's query ID. The engine finishes it
	// and folds its operator spans into the metrics; the same tree then
	// goes into the flight record and, for a slow run, the slow-query
	// log line — with no second execution.
	qid := obs.QueryIDFrom(r.Context())
	tracer := obs.New(qid, nil)
	eo.Tracer = tracer

	// The correlation window: the WAL commit sequence and checkpoint
	// count on either side of the execution join this query to the
	// exact ingest commits and checkpoints it overlapped — any
	// txn_commit event with walLo < seq <= walHi ran concurrently.
	db := s.eng.DB()
	walLo := db.CommitSeq()
	ckLo := db.IngestCounters().Checkpoints

	start := time.Now()
	var res *engine.Result
	var report *engine.Explain
	if req.Explain {
		report, res, err = pq.ExplainExecute(ctx, eo)
	} else {
		res, err = s.execute(ctx, pq, eo)
	}
	elapsed := time.Since(start)
	strategy := ""
	if res != nil {
		strategy = res.Strategy.String()
	}
	s.observeQuery(queryObservation{
		tracer:      tracer,
		qid:         qid,
		query:       req.Query,
		strategy:    strategy,
		start:       start,
		elapsed:     elapsed,
		walLo:       walLo,
		walHi:       db.CommitSeq(),
		checkpoints: db.IngestCounters().Checkpoints - ckLo,
		res:         res,
		report:      report,
		err:         err,
	})
	if err != nil {
		code := queryErrorStatus(err)
		switch code {
		case http.StatusGatewayTimeout:
			s.timeouts.Inc()
			writeError(w, code, "query timed out after %v", timeout)
			return
		case http.StatusServiceUnavailable:
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, "%v", err)
		return
	}
	s.okCount.Inc()
	qres := queryResponse{
		Trees:     res.Serialize(),
		Count:     len(res.Trees),
		Strategy:  res.Strategy.String(),
		CacheHit:  cacheHit,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Explain:   report,
	}
	if res.Strategy == exec.StrategyPhysical {
		qres.Matcher = res.Matcher.String()
	}
	writeJSON(w, http.StatusOK, qres)
}

// queryObservation carries one execution's observability payload from
// handleQuery into observeQuery: the request's tracer, the
// WAL/checkpoint correlation window, and the outcome.
type queryObservation struct {
	tracer      *obs.Tracer
	qid         string
	query       string
	strategy    string
	start       time.Time
	elapsed     time.Duration
	walLo       uint64 // WAL commit sequence before execution
	walHi       uint64 // WAL commit sequence after execution
	checkpoints uint64 // checkpoints completed during execution
	res         *engine.Result
	report      *engine.Explain
	err         error
}

// observeQuery reads the request's finished span tree (the engine
// already finished the tracer and folded its operator spans into the
// metrics; Finish is idempotent), files the query's one flight record,
// and — for an execution at or above the threshold — emits the
// slow_query journal event plus one structured log line carrying the
// query ID, the query text, the WAL/checkpoint window and the full span
// tree as JSON. /debug/flight?qid=... serves the same record the log
// line describes.
func (s *server) observeQuery(qo queryObservation) {
	d := qo.tracer.Finish()
	slow := s.cfg.slowQuery > 0 && qo.elapsed >= s.cfg.slowQuery
	if j := s.journal(); j != nil {
		rec := obs.FlightRecord{
			QID:         qo.qid,
			Query:       qo.query,
			Strategy:    qo.strategy,
			StartNS:     qo.start.UnixNano(),
			WallNS:      qo.elapsed.Nanoseconds(),
			Epoch:       s.eng.DB().Epoch(),
			WALSeqLow:   qo.walLo,
			WALSeqHigh:  qo.walHi,
			Checkpoints: int64(qo.checkpoints),
			Slow:        slow,
			Trace:       d,
		}
		if qo.res != nil {
			rec.Rows = int64(len(qo.res.Trees))
			rec.ValueLookups = int64(qo.res.Stats.ValueLookups)
			rec.IndexPostings = int64(qo.res.Stats.IndexPostings)
		}
		if qo.report != nil {
			rec.Explain = qo.report
		}
		if qo.err != nil {
			rec.Error = qo.err.Error()
		}
		j.AddFlight(rec)
		if slow {
			j.Emit(obs.Event{
				Type:   obs.EvSlowQuery,
				QID:    qo.qid,
				DurNS:  qo.elapsed.Nanoseconds(),
				Label:  qo.strategy,
				Aux:    int64(qo.walLo),
				WALSeq: qo.walHi,
				Count:  int64(qo.checkpoints),
			})
		}
	}
	if !slow {
		return
	}
	trace := ""
	if d != nil {
		var b strings.Builder
		if err := d.WriteJSON(&b); err != nil {
			b.Reset()
			b.WriteString(d.Text())
		}
		trace = strings.TrimRight(b.String(), "\n")
	}
	s.logger.Warn("slow query",
		"qid", qo.qid,
		"elapsed_ms", float64(qo.elapsed.Microseconds())/1000,
		"threshold_ms", float64(s.cfg.slowQuery.Microseconds())/1000,
		"strategy", qo.strategy,
		"query", qo.query,
		"wal_lo", qo.walLo,
		"wal_hi", qo.walHi,
		"checkpoints", qo.checkpoints,
		"trace", trace)
}

// statsResponse is the /stats body: buffer-pool counters, plan-cache
// state and catalog size.
type statsResponse struct {
	Pool      any               `json:"pool"`
	Cache     engine.CacheStats `json:"plan_cache"`
	Documents int               `json:"documents"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Pool:      s.eng.DB().Stats(),
		Cache:     s.eng.CacheStats(),
		Documents: len(s.eng.DB().Documents()),
	})
}

// requireGet rejects non-GET methods on the read-only endpoints with
// 405 plus the Allow header the RFC demands.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	return false
}

// handleMetrics renders the full registry — service, engine, storage
// and runtime families — in the Prometheus text exposition format.
// ?format=text selects the terse human-facing name/value rendering.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.eng.Registry().WriteText(w)
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	_ = s.eng.Registry().WritePrometheus(w)
}
