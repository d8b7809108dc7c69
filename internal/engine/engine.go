// Package engine is the unified query facade: the one entry point that
// owns the whole pipeline of the paper — parse (internal/xq), naive
// TAX plan (internal/plan), GROUPBY rewrite (internal/opt), physical
// execution (internal/exec) — behind a prepare/execute split. Prepare
// runs the one-time compilation stages and caches the result in an LRU
// keyed by query text; Execute runs a prepared plan under per-call
// options (strategy, parallelism, tracing, context cancellation), so a
// long-lived server pays parse + optimize once per distinct query and
// pure execution cost thereafter.
//
// Concurrency: an Engine and its PreparedQueries are safe for
// concurrent use. Compiled plans are immutable after Prepare; per-run
// state lives in the executors, and the storage layer's read paths and
// spill region are concurrency-safe (see storage.DB).
package engine

import (
	"container/list"
	"context"
	"strings"
	"sync"
	"time"

	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/opt"
	"timber/internal/opt/planner"
	"timber/internal/pattern"
	"timber/internal/plan"
	"timber/internal/stats"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

// DefaultCacheSize is the prepared-plan cache capacity when Options
// does not set one.
const DefaultCacheSize = 128

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the prepared-plan LRU (distinct query texts).
	// 0 means DefaultCacheSize; negative disables caching.
	CacheSize int
	// Parallelism is the default worker bound for executions that do
	// not set their own (0 = GOMAXPROCS, 1 = sequential).
	Parallelism int
	// Metrics receives the engine's counters (cache hits/misses/
	// evictions, executions, errors). Nil means the engine counts into
	// a private registry; Registry() returns whichever is in use.
	Metrics *obs.Registry
}

// Engine binds a database to a prepared-plan cache. Create with New.
type Engine struct {
	db   *storage.DB
	opts Options
	reg  *obs.Registry

	mu     sync.Mutex
	lru    *list.List // *PreparedQuery, front = most recently used
	byText map[string]*list.Element

	hits      *obs.Metric
	misses    *obs.Metric
	evictions *obs.Metric
	execs     *obs.Metric
	execErrs  *obs.Metric

	// Latency families (all in seconds, log-bucketed):
	// querySeconds is end-to-end Execute latency labeled by the
	// strategy that actually ran; prepareSeconds splits Prepare latency
	// by plan-cache outcome, making cache effectiveness visible as a
	// latency distribution rather than just a hit count; strategyTotal
	// counts executions per chosen strategy (after fallback).
	querySeconds   *obs.HistogramVec
	prepareSeconds *obs.HistogramVec
	strategyTotal  *obs.CounterVec

	// plannerEstErr distributes the planner's relative
	// cardinality-estimation error, measured against the actuals of the
	// ExplainExecute run it estimated.
	plannerEstErr *obs.HistogramVec

	// EXPLAIN's cardinality statistics, filed under the epoch of the
	// snapshot they were scanned from (see cardStats).
	statsMu    sync.Mutex
	statsCat   *stats.Catalog
	statsEpoch uint64
}

// estErrBuckets bound the planner's relative estimation error
// histogram: |estimate - actual| / max(actual, 1).
var estErrBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10}

// New creates an engine over db.
func New(db *storage.DB, opts Options) *Engine {
	if opts.CacheSize == 0 {
		opts.CacheSize = DefaultCacheSize
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	db.RegisterMetrics(reg)
	return &Engine{
		db:        db,
		opts:      opts,
		reg:       reg,
		lru:       list.New(),
		byText:    map[string]*list.Element{},
		hits:      reg.Counter("engine_plan_cache_hits"),
		misses:    reg.Counter("engine_plan_cache_misses"),
		evictions: reg.Counter("engine_plan_cache_evictions"),
		execs:     reg.Counter("engine_executions"),
		execErrs:  reg.Counter("engine_execution_errors"),
		querySeconds: reg.HistogramVec("engine_query_seconds",
			"End-to-end Execute latency by the strategy that ran.",
			obs.DefaultLatencyBuckets, "strategy"),
		prepareSeconds: reg.HistogramVec("engine_prepare_seconds",
			"Prepare latency split by plan-cache outcome.",
			obs.DefaultLatencyBuckets, "cache"),
		strategyTotal: reg.CounterVec("engine_strategy_total",
			"Executions by chosen strategy (after fallback).", "strategy"),
		plannerEstErr: reg.HistogramVec("planner_estimate_error",
			"Relative error of planner cardinality estimates vs actuals.",
			estErrBuckets, "quantity"),
	}
}

// DB returns the engine's database.
func (e *Engine) DB() *storage.DB { return e.db }

// Registry returns the registry the engine counts into — the one from
// Options.Metrics, or the engine's private one.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// CacheStats is a point-in-time view of the prepared-plan cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
}

// CacheStats returns the cache counters and current occupancy.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	size := e.lru.Len()
	e.mu.Unlock()
	return CacheStats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
		Size:      size,
		Capacity:  e.opts.CacheSize,
	}
}

// PreparedQuery is a compiled query: the parse and optimize stages run
// once, at Prepare time, and the results are immutable thereafter.
type PreparedQuery struct {
	eng *Engine
	// Text is the source query.
	Text string
	// Naive is the Sec. 4.1 translation of the query.
	Naive plan.Op
	// Rewritten is the GROUPBY rewrite of Naive when Applied, else
	// Naive itself.
	Rewritten plan.Op
	// Applied reports whether the grouping idiom was detected and the
	// rewrite produced Rewritten.
	Applied bool
	// Spec is the physical grouping-query description derived from
	// Rewritten; valid only when Applied.
	Spec exec.Spec
	// Pattern is the first pattern tree the physical plan embeds into
	// the database (the deepest Select over a DBScan leaf), the input
	// to match.Resolve. Nil when the plan has no indexed leaf
	// selection.
	Pattern *pattern.Tree
}

// Prepare compiles the query, consulting the plan cache: a hit returns
// the previously compiled PreparedQuery without re-running parse or
// optimize.
func (e *Engine) Prepare(query string) (*PreparedQuery, error) {
	pq, _, err := e.PrepareCached(query)
	return pq, err
}

// PrepareCached is Prepare plus a report of whether the plan came from
// the cache.
func (e *Engine) PrepareCached(query string) (*PreparedQuery, bool, error) {
	start := time.Now()
	if pq := e.lookup(query); pq != nil {
		e.hits.Inc()
		e.prepareSeconds.With("hit").ObserveDuration(time.Since(start))
		return pq, true, nil
	}
	e.misses.Inc()
	pq, err := e.compile(query)
	if err != nil {
		return nil, false, err
	}
	e.prepareSeconds.With("miss").ObserveDuration(time.Since(start))
	return e.insert(pq), false, nil
}

func (e *Engine) lookup(query string) *PreparedQuery {
	if e.opts.CacheSize < 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.byText[query]
	if !ok {
		return nil
	}
	e.lru.MoveToFront(el)
	return el.Value.(*PreparedQuery)
}

// insert files a freshly compiled plan, evicting the least recently
// used entry past capacity. If a concurrent Prepare of the same text
// got there first, its entry wins and is returned — both plans are
// equivalent, and keeping the incumbent preserves pointer identity for
// earlier callers.
func (e *Engine) insert(pq *PreparedQuery) *PreparedQuery {
	if e.opts.CacheSize < 0 {
		return pq
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.byText[pq.Text]; ok {
		e.lru.MoveToFront(el)
		return el.Value.(*PreparedQuery)
	}
	e.byText[pq.Text] = e.lru.PushFront(pq)
	for e.lru.Len() > e.opts.CacheSize {
		victim := e.lru.Back()
		e.lru.Remove(victim)
		delete(e.byText, victim.Value.(*PreparedQuery).Text)
		e.evictions.Inc()
	}
	return pq
}

// compile runs the one-time pipeline stages: parse, translate,
// rewrite, and (when the rewrite applies) Spec derivation.
func (e *Engine) compile(query string) (*PreparedQuery, error) {
	ast, err := xq.Parse(query)
	if err != nil {
		return nil, err
	}
	naive, err := plan.Translate(ast)
	if err != nil {
		return nil, err
	}
	rewritten, applied, err := opt.Rewrite(naive)
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{eng: e, Text: query, Naive: naive, Rewritten: rewritten, Applied: applied}
	pq.Pattern = patternOf(rewritten)
	if !applied {
		pq.Rewritten = naive
		pq.Pattern = patternOf(naive)
		return pq, nil
	}
	spec, err := exec.SpecFromPlan(rewritten)
	if err != nil {
		// The rewrite applied but the physical Spec does not cover the
		// query shape; the generic physical plan still can.
		pq.Applied = false
		return pq, nil
	}
	pq.Spec = spec
	return pq, nil
}

// ExecOptions are the per-execution knobs of a prepared query.
type ExecOptions struct {
	// Strategy selects the physical plan. The zero value,
	// exec.StrategyAuto, runs the groupby plan when the grouping
	// rewrite applied (the paper's Sec. 6 result); Result.Strategy
	// reports what ran. An explicit strategy is an override. Spec-level
	// strategies (groupby, direct, ...) require the grouping rewrite;
	// when it did not apply they — and auto — fall back to the generic
	// physical plan, so every value always works. StrategyLogical
	// forces the in-memory reference evaluator.
	Strategy exec.Strategy
	// Parallelism overrides the engine default when non-zero.
	Parallelism int
	// MaxMaterializeBytes caps the output content the streaming
	// executor's late-materialize sink may fetch; a run that would
	// exceed it fails with exec.ErrMaterializeLimit and returns no
	// partial output. 0 means unlimited.
	MaxMaterializeBytes int64
	// SortMemRows bounds the streaming GROUPBY sort's in-memory
	// buffer; past it, sorted runs spill through the storage spool.
	// 0 means never spill.
	SortMemRows int
	// Tracer, when non-nil, collects the run's span tree; nil means
	// Execute makes a wall-clock-only one. Either way Execute owns the
	// tree: after the run, on success or error, it finishes the tracer
	// and folds the operator spans (the root's descendants) once into
	// exec_operator_seconds. Finish is idempotent, so the caller reads
	// the same finished tree afterwards — timber-serve files it in the
	// flight recorder and the slow-query log. A counter-snapshotting
	// tracer (storage.DB.NewTracer) is exact only on solo runs over
	// reset counters: concurrent queries share the storage counters.
	Tracer *obs.Tracer
	// Matcher selects the pattern-matching algorithm for the physical
	// plan's indexed leaf selections. The zero value,
	// match.MatcherAuto, resolves by match.Resolve's rule: the
	// holistic twig join when every pattern node is tagged, cascaded
	// binary joins otherwise; an explicit matcher is an override.
	// Results are byte-identical either way — only the index access
	// pattern changes.
	Matcher match.MatcherKind
}

// Result is one execution's outcome.
type Result struct {
	// Trees are the materialized result elements.
	Trees []*xmltree.Node
	// Stats itemizes the plan's data accesses (Spec-level strategies
	// only; zero for logical/physical plan evaluation).
	Stats exec.ExecStats
	// Strategy is the plan that actually ran (after fallback).
	Strategy exec.Strategy
	// Matcher is the pattern-matching algorithm the physical path ran
	// (auto for strategies that do not run package match's matchers).
	Matcher match.MatcherKind
}

// Execute runs the prepared plan. ctx cancellation and deadlines are
// observed promptly — between operator phases, between worker chunk
// claims, and per item inside sequential scans — and a cancelled run
// returns ctx.Err() without corrupting shared storage state.
func (pq *PreparedQuery) Execute(ctx context.Context, o ExecOptions) (*Result, error) {
	res, _, err := pq.run(ctx, o)
	return res, err
}

// run is Execute plus the run's finished span tree. It is the one
// owner of a query's tracer (see ExecOptions.Tracer): the caller's, or
// a wall-clock-only one rooted at the query ID.
func (pq *PreparedQuery) run(ctx context.Context, o ExecOptions) (*Result, *obs.SpanData, error) {
	start := time.Now()
	if o.Tracer == nil {
		root := obs.QueryIDFrom(ctx)
		if root == "" {
			root = "query"
		}
		o.Tracer = obs.New(root, nil)
	}
	res, err := pq.execute(ctx, o)
	tree := o.Tracer.Finish()
	obs.RecordTree(pq.eng.reg, tree)
	pq.eng.execs.Inc()
	j := pq.eng.db.Journal()
	if err != nil {
		pq.eng.execErrs.Inc()
		j.Emit(obs.Event{
			Type:  obs.EvQueryError,
			QID:   obs.QueryIDFrom(ctx),
			DurNS: time.Since(start).Nanoseconds(),
			Err:   err.Error(),
		})
		return nil, nil, err
	}
	strat := res.Strategy.String()
	pq.eng.querySeconds.With(strat).ObserveDuration(time.Since(start))
	pq.eng.strategyTotal.With(strat).Inc()
	j.Emit(obs.Event{
		Type:  obs.EvQueryDone,
		QID:   obs.QueryIDFrom(ctx),
		Epoch: pq.eng.db.Epoch(),
		DurNS: time.Since(start).Nanoseconds(),
		Count: int64(len(res.Trees)),
		Aux:   int64(res.Stats.ValueLookups),
		Bytes: int64(res.Stats.IndexPostings),
		Label: strat,
	})
	return res, tree, nil
}

// resolvePlan maps the requested strategy to the one to run:
// StrategyAuto runs the groupby plan on grouping queries; queries
// outside the grouping family fall back to the generic physical plan
// under auto and under every Spec-level strategy.
func (pq *PreparedQuery) resolvePlan(requested exec.Strategy) exec.Strategy {
	switch {
	case !pq.Applied && requested != exec.StrategyLogical && requested != exec.StrategyPhysical:
		return exec.StrategyPhysical
	case requested == exec.StrategyAuto:
		return exec.StrategyGroupBy
	}
	return requested
}

// matcherFor is the pattern matcher a run of strat uses: MatcherAuto
// for strategies that never run package match, else match.Resolve's
// pick for the plan's pattern (the request itself when the plan embeds
// none).
func (pq *PreparedQuery) matcherFor(strat exec.Strategy, requested match.MatcherKind) match.MatcherKind {
	switch {
	case strat != exec.StrategyPhysical:
		return match.MatcherAuto
	case pq.Pattern == nil:
		return requested
	}
	return match.Resolve(pq.Pattern, requested)
}

// estimates is the planner's view of a strat run of the grouping Spec,
// read off the statistics of the current state.
func (pq *PreparedQuery) estimates(strat exec.Strategy) *planner.Estimates {
	return planner.Estimate(pq.eng.cardStats(), pq.Spec, strat)
}

// patternOf finds the pattern tree the physical evaluation will match
// against the database: the deepest Select whose input is the DBScan
// leaf. Plans without one (pure literals, naive joins) return nil.
func patternOf(op plan.Op) *pattern.Tree {
	switch o := op.(type) {
	case *plan.Select:
		if _, ok := o.In.(*plan.DBScan); ok {
			return o.Pattern
		}
		return patternOf(o.In)
	case *plan.Project:
		return patternOf(o.In)
	case *plan.ProjectPerTree:
		return patternOf(o.In)
	case *plan.DupElimContent:
		return patternOf(o.In)
	case *plan.DedupChildren:
		return patternOf(o.In)
	case *plan.SortChildrenByPath:
		return patternOf(o.In)
	case *plan.GroupBy:
		return patternOf(o.In)
	case *plan.Aggregate:
		return patternOf(o.In)
	case *plan.Rename:
		return patternOf(o.In)
	case *plan.LeftOuterJoin:
		if pt := patternOf(o.Left); pt != nil {
			return pt
		}
		return patternOf(o.Right)
	case *plan.Stitch:
		for _, p := range o.Parts {
			if pt := patternOf(p.Op); pt != nil {
				return pt
			}
		}
	}
	return nil
}

// cardStats returns the cardinality statistics EXPLAIN estimates
// from: one ANALYZE scan of a pinned snapshot, cached under that
// snapshot's epoch. Every commit moves the epoch, so a cached catalog
// always describes exactly the state it is filed under. Returns nil
// when the scan fails — the planner then reports zero estimates.
func (e *Engine) cardStats() *stats.Catalog {
	sn := e.db.Snapshot()
	defer sn.Close()
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	if e.statsCat != nil && e.statsEpoch == sn.Epoch() {
		return e.statsCat
	}
	cat, err := sn.CardStats()
	if err != nil {
		return nil
	}
	e.statsCat, e.statsEpoch = cat, sn.Epoch()
	return cat
}

// observeEstimate records the planner's relative estimation error for
// one ExplainExecute run against its actuals: the histogram plus a
// plan_estimate event, so a mis-estimate is inspectable per query, not
// just in aggregate.
func (e *Engine) observeEstimate(qid string, x *Explain) {
	if !x.StatsUsed {
		return
	}
	actual := float64(x.ActualGroups)
	err := relErr(x.EstGroups, actual)
	e.plannerEstErr.With("groups").Observe(err)
	e.db.Journal().Emit(obs.Event{
		Type:  obs.EvPlanEstimate,
		QID:   qid,
		Label: "groups",
		Count: int64(x.EstGroups),
		Aux:   int64(actual),
		Value: err,
	})
}

// relErr is the relative estimation error |est-actual| / max(actual, 1).
func relErr(est, actual float64) float64 {
	diff := est - actual
	if diff < 0 {
		diff = -diff
	}
	if actual < 1 {
		actual = 1
	}
	return diff / actual
}

func (pq *PreparedQuery) execute(ctx context.Context, o ExecOptions) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	par := o.Parallelism
	if par == 0 {
		par = pq.eng.opts.Parallelism
	}
	xo := exec.Options{
		Parallelism:         par,
		MaxMaterializeBytes: o.MaxMaterializeBytes,
		SortMemRows:         o.SortMemRows,
		Tracer:              o.Tracer,
		Ctx:                 ctx,
	}
	strat := pq.resolvePlan(o.Strategy)
	switch strat {
	case exec.StrategyLogical:
		out, err := exec.ExecLogical(pq.eng.db, pq.Naive)
		if err != nil {
			return nil, err
		}
		return &Result{Trees: out.Trees, Strategy: strat}, nil
	case exec.StrategyPhysical:
		xo.Matcher = pq.matcherFor(strat, o.Matcher)
		out, err := exec.ExecPhysical(pq.eng.db, pq.Rewritten, xo)
		if err != nil {
			return nil, err
		}
		return &Result{Trees: out.Trees, Strategy: strat, Matcher: xo.Matcher}, nil
	default:
		spec := pq.Spec
		spec.Strategy = strat
		res, err := exec.Run(pq.eng.db, spec, xo)
		if err != nil {
			return nil, err
		}
		return &Result{Trees: res.Trees, Stats: res.Stats, Strategy: strat}, nil
	}
}

// Query is Prepare + Execute in one call — the convenience path for
// callers that do not hold on to the prepared plan.
func (e *Engine) Query(ctx context.Context, query string, o ExecOptions) (*Result, error) {
	pq, err := e.Prepare(query)
	if err != nil {
		return nil, err
	}
	return pq.Execute(ctx, o)
}

// Serialize renders the result trees as concatenated XML documents —
// the byte format `timber query` prints and timber-serve returns, kept
// in one place so the two agree byte for byte.
func (r *Result) Serialize() string {
	var b strings.Builder
	for _, tr := range r.Trees {
		b.WriteString(xmltree.SerializeString(tr))
	}
	return b.String()
}
