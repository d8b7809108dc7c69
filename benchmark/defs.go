package main

import (
	"fmt"

	"timber/internal/match"
)

// metricDef describes one reported metric. BENCHMARK.json repeats the
// name, unit, direction and (for end-to-end metrics) bound; the layer
// and the prediction live here and in README.md because the contract
// fixes BENCHMARK.json's keys. bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Layer is the module the metric measures (end-to-end metrics: the
	// whole system).
	Layer string
	// Moves says which end-to-end metric the layer metric should move,
	// and on which workload; elsewhere the prediction is no change.
	Moves string
}

// endToEnd are the metrics a timber user waits for or pays. Every
// workload reports every one of them.
//
// A bound holds for every workload, so it is set by the noisiest one:
// each is three to four times the widest spread (interquartile range over
// median of ten runs on ten seeds) seen on the seed commit in the
// two-core sandbox — e1_titles_warm for the timings (p50 5 %, p95 8 %,
// rate 6 %; the other workloads stay under 3 %, 6 % and 3 %),
// twig_patterns for the size ratio (0.8 %, from seed to seed; a seed's
// own value is exact) — plus room for the sandbox's minutes-long
// episodes in which every workload runs 10-18 % slower. README.md has
// the table.
var endToEnd = []metricDef{
	{Name: "query_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "query_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "stored_bytes_per_xml_byte", Unit: "ratio", Better: "lower", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Workload names.
const (
	wlE1    = "e1_titles_warm"
	wlE2    = "e2_count_cold"
	wlTwig  = "twig_patterns"
	wlServe = "serve_ingest_mix"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{wlE1, "paper E1 via engine.Query on a pool that holds the data: exec population/sort/materialize and ContentsBatch on pool hits carry the time; pagestore misses and wal are bypassed"},
	{wlE2, "paper E2 count with a 1:4 pool and a dropped cache per operation: pagestore miss/CRC/LZ, btree leaf scans, posting decode and sjoin carry the time; exec materialization is bypassed"},
	{wlTwig, "what timber-match does: three raw pattern trees drained through match.Open on many documents, isolating match/sjoin/btree.Seek/posting decode from exec, engine and wal"},
	{wlServe, "a real timber-serve subprocess answering E1/E2 over HTTP while a second client ingests and deletes documents, so WAL group commit, copy-on-write and snapshots run beside reads"},
}

// matcherKinds are the matchers the match layer is measured under;
// their names are the last part of the match_* metric names.
var matcherKinds = []match.MatcherKind{match.MatcherBinary, match.MatcherTwig}

// perLayer are the metrics of single layers, reported by the traced
// run. A metric that does not apply to a workload (match_ms_chain_* on
// a query workload, wal_* where nothing is written) is reported as 0
// there, because the contract wants every metric from every run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "http_overhead_ms", Unit: "ms", Better: "lower", Layer: "cmd/timber-serve", Moves: "query_ms_p50 on serve_ingest_mix"},
		{Name: "http_429_share", Unit: "ratio", Better: "lower", Layer: "cmd/timber-serve", Moves: "failed operations on serve_ingest_mix"},
		{Name: "ingest_ms_p50", Unit: "ms", Better: "lower", Layer: "cmd/timber-serve", Moves: "latency of an acknowledged durable write on serve_ingest_mix (user-visible; unbounded because its spread exceeds any bound here)"},
		{Name: "ingest_ms_p95", Unit: "ms", Better: "lower", Layer: "cmd/timber-serve", Moves: "as ingest_ms_p50"},
		{Name: "ingests_per_s", Unit: "1/s", Better: "higher", Layer: "cmd/timber-serve", Moves: "write throughput beside reads on serve_ingest_mix"},

		{Name: "prepare_miss_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "query_ms_p50 on serve_ingest_mix only (<= 1 % elsewhere)"},
		{Name: "prepare_hit_us", Unit: "us", Better: "lower", Layer: "engine", Moves: "as prepare_miss_us"},
		{Name: "plan_cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "engine", Moves: "as prepare_miss_us"},
		{Name: "plan_pick_us", Unit: "us", Better: "lower", Layer: "opt/planner", Moves: "none in steady state"},
	}
	for _, p := range twigPatterns {
		for _, k := range matcherKinds {
			moves := "query_ms_p50 on twig_patterns"
			if p.Name == "branch" {
				moves += " (most), e2_count_cold (some), little on e1_titles_warm"
			}
			m = append(m,
				metricDef{Name: fmt.Sprintf("match_ms_%s_%v", p.Name, k), Unit: "ms", Better: "lower", Layer: "match", Moves: moves},
				metricDef{Name: fmt.Sprintf("match_postings_scanned_%s_%v", p.Name, k), Unit: "count", Better: "lower", Layer: "match", Moves: moves},
				metricDef{Name: fmt.Sprintf("match_intermediate_bindings_%s_%v", p.Name, k), Unit: "count", Better: "lower", Layer: "match", Moves: moves},
			)
		}
		m = append(m, metricDef{Name: "match_witnesses_" + p.Name, Unit: "count", Better: "lower", Layer: "match", Moves: "none (workload size)"})
	}
	m = append(m,
		metricDef{Name: "sjoin_mpairs_per_s", Unit: "Mpairs/s", Better: "higher", Layer: "sjoin", Moves: "query_ms_p50 on twig_patterns (binary picks) and e2_count_cold"},

		metricDef{Name: "exec_ms", Unit: "ms", Better: "lower", Layer: "exec", Moves: "query_ms_p50 on e1_titles_warm; e2_count_cold for sort and dup-elim"},
		metricDef{Name: "exec_direct_ms", Unit: "ms", Better: "lower", Layer: "exec", Moves: "none (the paper's baseline, kept so Sec. 6 ratios stay visible)"},
		metricDef{Name: "exec_direct_batch_ms", Unit: "ms", Better: "lower", Layer: "exec", Moves: "none (the baseline's modern bracket)"},
		metricDef{Name: "exec_value_lookups", Unit: "count", Better: "lower", Layer: "exec", Moves: "query_ms_p50 on e1_titles_warm"},
		metricDef{Name: "exec_index_postings", Unit: "count", Better: "lower", Layer: "exec", Moves: "query_ms_p50 on e2_count_cold"},
		metricDef{Name: "exec_groups", Unit: "count", Better: "lower", Layer: "exec", Moves: "none (workload size)"},

		metricDef{Name: "tagscan_ns_per_posting", Unit: "ns", Better: "lower", Layer: "storage", Moves: "query_ms_p50 on e2_count_cold and twig_patterns"},
		metricDef{Name: "content_ns_per_lookup", Unit: "ns", Better: "lower", Layer: "storage", Moves: "query_ms_p50 on e1_titles_warm"},
		metricDef{Name: "insert_ms_per_doc", Unit: "ms", Better: "lower", Layer: "storage", Moves: "ingest_ms_p50 on serve_ingest_mix"},

		metricDef{Name: "btree_seek_ns", Unit: "ns", Better: "lower", Layer: "btree", Moves: "query_ms_p50 on twig_patterns (chain)"},
		metricDef{Name: "btree_scan_ns_per_kv", Unit: "ns", Better: "lower", Layer: "btree", Moves: "query_ms_p50 on e2_count_cold"},
		metricDef{Name: "btree_node_visits_per_seek", Unit: "count", Better: "lower", Layer: "btree", Moves: "as btree_seek_ns"},

		metricDef{Name: "pool_fetch_hit_ns", Unit: "ns", Better: "lower", Layer: "pagestore", Moves: "query_ms_p50 on e1_titles_warm"},
		metricDef{Name: "pool_fetch_miss_ns", Unit: "ns", Better: "lower", Layer: "pagestore", Moves: "query_ms_p50 on e2_count_cold"},
		metricDef{Name: "pool_fetches", Unit: "count", Better: "lower", Layer: "pagestore", Moves: "query_ms_p50 wherever fetches fall (per operation)"},
		metricDef{Name: "pool_hit_ratio", Unit: "ratio", Better: "higher", Layer: "pagestore", Moves: "query_ms_p50 on e2_count_cold"},
		metricDef{Name: "pool_physical_reads", Unit: "count", Better: "lower", Layer: "pagestore", Moves: "query_ms_p50 on e2_count_cold (per operation)"},
		metricDef{Name: "pool_evictions", Unit: "count", Better: "lower", Layer: "pagestore", Moves: "query_ms_p50 on e2_count_cold (per operation)"},

		metricDef{Name: "wal_bytes_per_commit", Unit: "bytes", Better: "lower", Layer: "wal", Moves: "ingest_ms_p50/p95 on serve_ingest_mix"},
		metricDef{Name: "wal_fsyncs_per_commit", Unit: "ratio", Better: "lower", Layer: "wal", Moves: "as wal_bytes_per_commit"},
		metricDef{Name: "wal_commit_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "as wal_bytes_per_commit"},

		metricDef{Name: "share_engine_pct", Unit: "%", Better: "lower", Layer: "engine", Moves: "trace: self time of prepare"},
		metricDef{Name: "share_planner_pct", Unit: "%", Better: "lower", Layer: "opt/planner", Moves: "trace: self time of the plan pick"},
		metricDef{Name: "share_exec_pct", Unit: "%", Better: "lower", Layer: "exec", Moves: "trace: exec.Run minus replayed match and content"},
		metricDef{Name: "share_match_pct", Unit: "%", Better: "lower", Layer: "match", Moves: "trace: match.Open drain minus replayed tag scans"},
		metricDef{Name: "share_tagscan_pct", Unit: "%", Better: "lower", Layer: "storage", Moves: "trace: OpenTagCursor drains (btree, posting decode, pool)"},
		metricDef{Name: "share_content_pct", Unit: "%", Better: "lower", Layer: "storage", Moves: "trace: ContentsBatch over the witnesses"},
		metricDef{Name: "share_serialize_pct", Unit: "%", Better: "lower", Layer: "xmltree", Moves: "trace: result serialization"},
		metricDef{Name: "share_server_pct", Unit: "%", Better: "lower", Layer: "cmd/timber-serve", Moves: "trace: the server's own elapsed_ms as a share of client latency"},
		metricDef{Name: "unaccounted_pct", Unit: "%", Better: "lower", Layer: "benchmark", Moves: "trace: root time no replayed stage explains"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Layer: "benchmark", Moves: "none: traced vs untraced median of the same operation"},
	)
	return m
}

// shareMetric maps a trace layer to its share_*_pct metric.
var shareMetric = map[string]string{
	layerEngine:   "share_engine_pct",
	layerPlanner:  "share_planner_pct",
	layerExec:     "share_exec_pct",
	layerMatch:    "share_match_pct",
	layerTagscan:  "share_tagscan_pct",
	layerContent:  "share_content_pct",
	layerXMLTree:  "share_serialize_pct",
	layerServerOp: "share_server_pct",
}
