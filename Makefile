GO ?= go

.PHONY: all build test vet race check bench experiments fuzz-smoke trace-check serve-check metrics-check serve-bench stream-check bench-check wal-check plan-check events-check events-bench twig-check twig-bench calibrate

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the full gate: static analysis plus the whole suite under
# the race detector (the plain suite is a subset of the race run).
check: vet race

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

experiments:
	$(GO) run ./cmd/experiments -parfile BENCH_parallel.json

# fuzz-smoke runs each native fuzz target briefly — enough to catch
# parser panics on the corpus plus a short random exploration. The
# storage and exec targets cover the compressed on-disk codecs
# (posting blocks, compact records, LZ pages, spill rows).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xq/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTree$$' -fuzztime 5s ./internal/pattern/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/xmltree/
	$(GO) test -run '^$$' -fuzz '^FuzzPostingBlock$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordCompact$$' -fuzztime 5s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzSpillRow$$' -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz '^FuzzLZDecompress$$' -fuzztime 5s ./internal/pagestore/
	$(GO) test -run '^$$' -fuzz '^FuzzTwigMatch$$' -fuzztime 5s ./internal/match/

# serve-check gates the service layer: timber-serve must build, and
# the engine + HTTP suites (concurrent-client hammer, plan cache,
# cancellation, backpressure) must pass under the race detector.
serve-check:
	$(GO) build ./cmd/timber-serve
	$(GO) test -race ./internal/engine/ ./cmd/timber-serve/

# trace-check runs one traced query end to end; timber-query verifies
# the exactness invariant (span deltas ≡ global counters) and exits
# nonzero on any mismatch.
trace-check:
	$(GO) run ./cmd/dblpgen -articles 2000 -db /tmp/timber-trace-check.db
	$(GO) run ./cmd/timber-query -db /tmp/timber-trace-check.db -plans=false -q -trace \
		'FOR $$a IN distinct-values(document("bib.xml")//author) RETURN <authorpubs>{$$a}{FOR $$b IN document("bib.xml")//article WHERE $$a = $$b/author RETURN $$b/title}</authorpubs>'
	rm -f /tmp/timber-trace-check.db

# metrics-check gates the telemetry pipeline end to end: start a real
# timber-serve over a generated database, run a query, scrape /metrics,
# and validate the Prometheus exposition with the built-in linter
# (cmd/metricslint, no external tooling). Fails on any format violation
# or when the exposition lacks a counter, a gauge or a labeled
# histogram.
metrics-check:
	$(GO) run ./cmd/dblpgen -articles 500 -db /tmp/timber-metrics-check.db
	$(GO) build -o /tmp/timber-serve-metrics-check ./cmd/timber-serve
	$(GO) run ./cmd/metricslint -serve /tmp/timber-serve-metrics-check -db /tmp/timber-metrics-check.db
	rm -f /tmp/timber-metrics-check.db /tmp/timber-serve-metrics-check

# stream-check gates the streaming executor: every corpus query must
# produce byte-identical trees and stats to the materializing
# reference (groupby-mat), at parallelism 1 and 4 and across batch
# sizes, under the race detector — plus the spill-equivalence and
# materialize-budget suites and the facade-level equivalence.
stream-check:
	$(GO) test -race -run 'Streaming|Materialize|GroupByMat|FacadeStreaming|FacadeMaterialize' \
		./internal/exec/ ./internal/engine/

# bench-check gates the compressed storage formats: a short full-scale
# ladder run (compressed vs uncompressed database at a small article
# count) that fails unless query results are byte-identical across
# formats and the index bytes-on-disk shrank by at least 30% — the
# acceptance floor the full BENCH_fullscale.json run must also clear.
bench-check:
	$(GO) run ./cmd/experiments -exp none -fullfile /tmp/timber-bench-check.json \
		-fullarticles 4000 -assertreduction 30
	rm -f /tmp/timber-bench-check.json

# wal-check gates the durable write path: the crash-recovery harness
# (torn writes and drop-unsynced power cuts at sampled WAL offsets,
# write-fault aborts, recovery idempotence), the WAL and crashfs unit
# suites, and the concurrent ingest-vs-query byte-identity and spool
# cancellation hammers — all under the race detector.
wal-check:
	$(GO) test -race ./internal/wal/ ./internal/crashfs/
	$(GO) test -race -run 'Crash|Ingest|Spool|Snapshot' \
		./internal/storage/ ./internal/exec/ ./cmd/timber-serve/

# plan-check gates the cost-based planner: the planner-pick regression
# (auto must never run slower than 1.5x the best strategy on the bench
# fixture), the statistics round-trip and incremental-maintenance
# suites, the auto/explicit byte-identity checks, and the EXPLAIN
# estimate-vs-actual join — all under the race detector.
plan-check:
	$(GO) test -race ./internal/opt/planner/ ./internal/stats/
	$(GO) test -race -run 'Planner|CardStats|Auto|Explain|ParseStrategy' \
		./internal/storage/ ./internal/exec/ ./internal/engine/

# events-check gates the event journal and flight recorder: the schema
# lint (every emitted event type registered, documented, and present in
# DESIGN.md §7.3), the lock-free ring and full-stack /debug/events
# hammers, the journal-on ≡ journal-off byte-identity suite, and the
# /debug endpoint contract (filters, slow-query correlation, pprof
# gated behind -debug) — all under the race detector.
events-check:
	$(GO) run ./cmd/eventslint -root . -design DESIGN.md
	$(GO) test -race -run 'Journal|Event|Flight|Debug|Pprof|SlowQuery|Anomal|Dump' \
		./internal/obs/ ./internal/engine/ ./cmd/timber-serve/

# twig-check gates the holistic twig-join matcher: the twig ≡ binary
# equivalence property (random documents and patterns, parallelism 1
# and 4) and the directed order-preserving-merge cases, the binding
# lifetime and Next-after-Close contracts on all three matchers, the
# concurrent both-matchers hammer, the matcher cost model, the
# engine-level byte-identity and EXPLAIN matcher reporting, and the
# matcher-pick regression (the planner's pick must never run slower
# than 1.5x the best explicit matcher) — all under the race detector.
# The allocation ceiling runs on its own without -race, whose runtime
# allocates by itself. Last, a short matcher comparison that fails
# unless the twig matcher strictly wins postings scanned and
# intermediate bindings on the deep chain.
twig-check:
	$(GO) test -race -run 'Twig|Matcher|BindingLifetime|NextAfterClose|Collectors' \
		./internal/match/ ./internal/opt/planner/ ./internal/engine/ \
		./internal/bench/ ./cmd/timber-serve/
	$(GO) test -run 'TestTwigAllocCeiling' ./internal/match/
	$(GO) run ./cmd/experiments -exp none -twigfile /tmp/timber-twig-check.json \
		-twigdocs 12 -twigarticles 80 -twigreps 1
	rm -f /tmp/timber-twig-check.json

# twig-bench writes the full-size matcher comparison (binary cascade
# vs holistic twig join: postings scanned, intermediate bindings, wall
# time on chain and branch patterns) to BENCH_twig.json.
twig-bench:
	$(GO) run ./cmd/experiments -exp none -twigfile BENCH_twig.json

# calibrate summarizes the planner's estimation accuracy from
# self-generated plan_estimate events (pass a journal dump to
# cmd/experiments -calibrate to read operator data instead).
calibrate:
	$(GO) run ./cmd/experiments -exp none -calibrate self

# events-bench measures the journal's query-path overhead (E1 wall
# time with the journal off vs on) and writes BENCH_events.json; the
# delta must stay within run-to-run noise.
events-bench:
	$(GO) run ./cmd/experiments -exp none -eventsfile BENCH_events.json

# serve-bench hammers an in-process timber-serve with concurrent
# clients and writes the server-side latency quantiles (read from the
# http_request_seconds histogram) to BENCH_serve.json.
serve-bench:
	$(GO) run ./cmd/dblpgen -articles 2000 -db /tmp/timber-serve-bench.db
	$(GO) run ./cmd/timber-serve -db /tmp/timber-serve-bench.db \
		-hammer 200 -hammerclients 8 -hammerfile BENCH_serve.json
	rm -f /tmp/timber-serve-bench.db
