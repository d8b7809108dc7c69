package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"
)

// setupRounds is how often a run sets the system up from nothing; the
// median is setup_s. The last set-up is the one the windows run on.
const setupRounds = 3

// maxWarmup bounds the untimed operations before the first window:
// enough for the pool to fill, the plan cache to hit and lazy
// statistics to be read.
const maxWarmup = 3 * time.Second

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Latency is the distribution behind query_ms_p50/p95, with its
	// quartiles and sample count.
	Latency latencySummary `json:"latency"`
	SetupS  []float64      `json:"setup_s_rounds"`
	Facts   workloadFacts  `json:"facts"`
	// FailureNotes are the first few reasons operations failed.
	FailureNotes []string `json:"failure_notes,omitempty"`

	trace *trace
}

// window runs operations back to back (closed loop, one client) until
// d has passed, and at least once. It returns the timed part of each
// operation in milliseconds, the number of failures and the next
// operation index.
func window(d time.Duration, next int, op func(i int) (time.Duration, bool)) (ms []float64, failed, after int) {
	start := time.Now()
	for {
		took, ok := op(next)
		next++
		if ok {
			ms = append(ms, float64(took.Nanoseconds())/1e6)
		} else {
			failed++
		}
		if time.Since(start) >= d {
			return ms, failed, next
		}
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runWorkload sets one workload up, checks it against its pins, runs
// its windows and folds the samples into metrics. An error means the
// run could not be made; wrong results are counted in Failed.
func runWorkload(name string, cfg config, traced bool, log io.Writer) (res *runResult, err error) {
	cfg.failures = &failureLog{}
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := w.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	res = &runResult{Workload: name, Traced: traced, Metrics: map[string]float64{}}

	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close between set-ups: %w", name, err)
			}
		}
	}
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Facts = w.facts()
	if err := checkPins(name, cfg, res.Facts.Corpus); err != nil {
		return nil, err
	}

	if traced {
		if err := layerMetrics(w.layerDB(), cfg, res.Metrics); err != nil {
			return nil, fmt.Errorf("%s: layer metrics: %w", name, err)
		}
	}

	if err := w.start(); err != nil {
		return nil, err
	}
	warm := seconds(cfg.seconds / 5)
	if warm > maxWarmup {
		warm = maxWarmup
	}
	_, warmFailed, next := window(warm, 0, w.op)
	res.Attempted, res.Failed = next, warmFailed

	var lat []float64
	if !traced {
		var failed int
		lat, failed, next = window(seconds(cfg.seconds), next, w.op)
		res.Attempted += len(lat) + failed
		res.Failed += failed
	} else {
		// A sixth of the window runs untraced between two counter
		// snapshots and gives the per-operation counts.
		c0, err := w.counters()
		if err != nil {
			return nil, err
		}
		counted, failed, n := window(seconds(cfg.seconds/6), next, w.op)
		c1, err := w.counters()
		if err != nil {
			return nil, err
		}
		res.Attempted += len(counted) + failed
		res.Failed += failed
		counterMetrics(c0, c1, len(counted)+failed, res.Metrics)

		// The rest alternates traced and untraced operations, so that
		// drift over the window (a growing file, a busier writer) falls
		// on both alike and the difference of their medians is the
		// tracing overhead.
		res.trace = newTrace()
		var plain []float64
		lat, failed, next = window(seconds(cfg.seconds*5/6), n, func(i int) (time.Duration, bool) {
			d, ok := w.op(i)
			if ok {
				plain = append(plain, float64(d.Nanoseconds())/1e6)
			}
			td, tok := w.tracedOp(i, res.trace)
			res.Attempted++
			if !ok {
				res.Failed++
			}
			return td, tok
		})
		res.Attempted += len(lat) + failed
		res.Failed += failed
		if base := median(plain); base > 0 {
			res.Metrics["trace_overhead_pct"] = 100 * (median(lat) - base) / base
		}
	}
	bgAttempted, bgFailed, extra := w.stop()
	res.Attempted += bgAttempted
	res.Failed += bgFailed
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no operation succeeded in the measured window (%d failed)", name, res.Failed)
	}
	res.Latency = summarize(lat)

	if traced {
		for k, v := range extra {
			res.Metrics[k] = v
		}
		if err := w.tracedMetrics(res.Metrics); err != nil {
			return nil, fmt.Errorf("%s: traced metrics: %w", name, err)
		}
		if err := checkNesting(res.trace.spans); err != nil {
			return nil, err
		}
		shares, unaccounted, _ := layerShares(res.trace.spans)
		for layer, pct := range shares {
			res.Metrics[shareMetric[layer]] = pct
		}
		res.Metrics["unaccounted_pct"] = unaccounted
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				res.Metrics[m.Name] = 0
			}
		}
		fmt.Fprintf(log, "%s: traced window, %d operations\n%s", name, len(lat), shareTable(res.trace.spans))
	} else {
		res.Metrics["query_ms_p50"] = res.Latency.P50
		res.Metrics["query_ms_p95"] = res.Latency.P95
		res.Metrics["queries_per_s"] = res.Latency.PerSecond
		res.Metrics["stored_bytes_per_xml_byte"] = float64(res.Facts.StoredBytes) / float64(res.Facts.Corpus.XMLBytes)
		res.Metrics["setup_s"] = median(res.SetupS)
	}
	res.Correct = res.Failed == 0
	res.FailureNotes = cfg.failures.msgs
	return res, nil
}

// counterMetrics turns two counter snapshots around ops operations
// into the per-operation layer metrics.
func counterMetrics(c0, c1 counters, ops int, out map[string]float64) {
	per := func(a, b uint64) float64 { return float64(b-a) / float64(ops) }
	out["pool_fetches"] = per(c0.pool.Fetches, c1.pool.Fetches)
	out["pool_physical_reads"] = per(c0.pool.PhysicalReads, c1.pool.PhysicalReads)
	out["pool_evictions"] = per(c0.pool.Evictions, c1.pool.Evictions)
	if f := c1.pool.Fetches - c0.pool.Fetches; f > 0 {
		out["pool_hit_ratio"] = float64(c1.pool.Hits-c0.pool.Hits) / float64(f)
	}
	if commits := c1.walCommits - c0.walCommits; commits > 0 {
		out["wal_bytes_per_commit"] = float64(c1.walBytes-c0.walBytes) / float64(commits)
		out["wal_fsyncs_per_commit"] = float64(c1.walFsyncs-c0.walFsyncs) / float64(commits)
	}
	if probes := (c1.cacheHits - c0.cacheHits) + (c1.cacheMisses - c0.cacheMisses); probes > 0 {
		out["plan_cache_hit_ratio"] = float64(c1.cacheHits-c0.cacheHits) / float64(probes)
	}
	if reqs := c1.requests - c0.requests; reqs > 0 {
		out["http_429_share"] = float64(c1.rejected-c0.rejected) / float64(reqs)
	}
}

// printResult writes every metric of a run by name with its unit.
func printResult(out io.Writer, r *runResult) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "%s (%s): %d operations attempted, %d failed\n", r.Workload, map[bool]string{false: "untraced", true: "traced"}[r.Traced], r.Attempted, r.Failed)
	l := r.Latency
	fmt.Fprintf(out, "  read latency over %d samples: p25 %.3f  p50 %.3f  p75 %.3f  p95 %.3f ms (p50, p95: medians of %d slices)\n", l.N, l.P25, l.P50, l.P75, l.P95, l.Slices)
	for _, m := range defs {
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	for _, note := range r.FailureNotes {
		fmt.Fprintf(out, "  failed: %s\n", note)
	}
	if len(r.Facts.Labels) > 0 {
		keys := make([]string, 0, len(r.Facts.Labels))
		for k := range r.Facts.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  %-40s %14s\n", "planner "+k, r.Facts.Labels[k])
		}
	}
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace."+workload+".json")
}
