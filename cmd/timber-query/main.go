// Command timber-query runs an XQuery-subset query against a timber
// database: it parses the query, prints the naive TAX plan and (when
// the grouping idiom is detected) the GROUPBY rewrite, executes it, and
// prints the result trees as XML.
//
// Usage:
//
//	timber-query -db bib.timber 'FOR $a IN distinct-values(...) ...'
//	timber-query -db bib.timber -f query.xq -plan groupby
//	timber-query -db bib.timber -explain -f query.xq
//
// -plan selects the execution strategy (exec.ParseStrategy names).
// The default, auto, hands the choice to the cost-based planner: the
// engine costs the candidate plans against the database's cardinality
// statistics and runs the cheapest. The explicit overrides are
// logical (reference in-memory evaluation), physical (generic
// index-accelerated evaluation of any translatable query), direct
// (the naive plan with materialized intermediates), direct-batch (the
// naive plan as index identification plus a hash join), and groupby
// (streaming identifier processing).
// Strategies that need the grouping rewrite fall back to the physical
// plan, with a note, when the idiom is not detected.
//
// -explain prints the planner's EXPLAIN report to stderr after the
// run: the chosen strategy, the costed alternatives, and per-operator
// cardinality estimates joined against the actual row counts from the
// execution trace. -explainfile writes the same report as JSON. This
// subsumes the older -trace text output for plan-level questions;
// -trace remains for the counter-exact span tree (buffer-pool and
// index deltas per operator) and cannot be combined with -explain,
// which owns the run's tracer.
//
// -matcher selects the pattern-matching algorithm the physical plan's
// indexed selections run: auto (the cost-based planner chooses;
// default), binary (cascaded binary structural joins), or twig (the
// holistic twig join streaming tag-index cursors). Results are
// byte-identical across matchers; only the index access pattern
// changes. EXPLAIN reports the planner's matcher choice and expected
// join order.
//
// -maxmem caps, in bytes, the output content the streaming executor's
// late-materialize sink may fetch; a query that would exceed the cap
// fails cleanly — no partial output is printed.
//
// -trace prints an EXPLAIN-ANALYZE-style per-operator tree to stderr:
// one span per operator phase with wall time, buffer-pool deltas
// (fetches / hits / physical I/O), index-traversal deltas and operator
// counters. -tracefile writes the same tree as JSON. Either flag also
// verifies the exactness invariant — the span deltas must sum to the
// database's global counters — and fails the command if they do not.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

func main() {
	dbPath := flag.String("db", "timber.db", "database file")
	queryFile := flag.String("f", "", "read the query from this file")
	strategy := flag.String("plan", "auto", "execution strategy: "+strings.Join(exec.StrategyNames(), ", ")+" (auto = cost-based planner)")
	matcher := flag.String("matcher", "auto", "pattern matcher for the physical plan: auto (planner decides; default), binary, twig")
	poolMB := flag.Int("poolmb", 32, "buffer pool size in MiB")
	parallel := flag.Int("parallel", 0, "worker bound for the physical executors (0 = GOMAXPROCS, 1 = sequential)")
	maxMem := flag.Int64("maxmem", 0, "cap, in bytes, on the output content the streaming executor materializes; the query fails cleanly (no partial output) past it (0 = unlimited)")
	showPlans := flag.Bool("plans", true, "print the naive and rewritten plans")
	quiet := flag.Bool("q", false, "suppress result trees (print timing only)")
	explain := flag.Bool("explain", false, "print the planner's EXPLAIN report (plan choice, estimates vs actuals) to stderr")
	explainFile := flag.String("explainfile", "", "write the EXPLAIN report as JSON to this file")
	trace := flag.Bool("trace", false, "print a per-operator EXPLAIN ANALYZE tree to stderr")
	traceFile := flag.String("tracefile", "", "write the per-operator trace as JSON to this file")
	metricsFile := flag.String("metricsfile", "", "write the engine's metric registry as Prometheus text exposition to this file after the run")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	query := ""
	switch {
	case *queryFile != "":
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timber-query:", err)
			os.Exit(1)
		}
		query = string(b)
	case flag.NArg() == 1:
		query = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "timber-query: pass the query as the single argument or via -f")
		os.Exit(2)
	}

	servePprof(*pprofAddr)
	// run owns the database lifecycle: by the time it returns, the
	// deferred Close has executed (and its error has been folded into
	// run's), so exiting here never skips cleanup.
	if err := run(*dbPath, query, *strategy, *matcher, *poolMB, *parallel, *maxMem, *showPlans, *quiet, *explain, *explainFile, *trace, *traceFile, *metricsFile); err != nil {
		fmt.Fprintln(os.Stderr, "timber-query:", err)
		os.Exit(1)
	}
}

// servePprof starts the opt-in pprof listener. Failures to serve are
// reported but never fail the query.
func servePprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "timber-query: pprof:", err)
		}
	}()
}

func run(dbPath, query, strategy, matcher string, poolMB, parallel int, maxMem int64, showPlans, quiet, explain bool, explainFile string, trace bool, traceFile, metricsFile string) (err error) {
	strat, err := exec.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	mkind, err := match.ParseMatcher(matcher)
	if err != nil {
		return err
	}
	wantExplain := explain || explainFile != ""
	if wantExplain && (trace || traceFile != "") {
		return fmt.Errorf("-explain owns the run's tracer; drop -trace/-tracefile or run them separately")
	}

	db, err := storage.Open(dbPath, storage.Options{PoolPages: poolMB * 1024 * 1024 / 8192})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// Prepare through the engine facade: the same parse + rewrite +
	// cache pipeline timber-serve runs, so one query gives the same
	// bytes here and over HTTP.
	eng := engine.New(db, engine.Options{Parallelism: parallel})
	pq, err := eng.Prepare(query)
	if err != nil {
		return err
	}
	if showPlans {
		fmt.Println("--- naive plan (Sec. 4.1) ---")
		fmt.Print(plan.Format(pq.Naive))
		if pq.Applied {
			fmt.Println("--- GROUPBY rewrite (Sec. 4.1 Phase 2) ---")
			fmt.Print(plan.Format(pq.Rewritten))
		} else {
			fmt.Println("--- grouping idiom not detected; no rewrite ---")
		}
	}

	// The tracer snapshots the global counters at span boundaries, so
	// they must start from zero for the exactness invariant to hold.
	var tr *obs.Tracer
	if trace || traceFile != "" {
		db.ResetStats()
		tr = db.NewTracer("query")
	}

	// Ctrl-C cancels the run promptly instead of waiting it out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	opts := engine.ExecOptions{Strategy: strat, Matcher: mkind, Parallelism: parallel, MaxMaterializeBytes: maxMem, Tracer: tr}
	var res *engine.Result
	var report *engine.Explain
	if wantExplain {
		report, res, err = pq.ExplainExecute(ctx, opts)
	} else {
		res, err = pq.Execute(ctx, opts)
	}
	if err != nil {
		// Nothing has been printed yet: a run that exceeds -maxmem (or
		// fails any other way) produces no partial output.
		return err
	}
	elapsed := time.Since(start)
	trees := res.Trees
	if strat != exec.StrategyAuto && res.Strategy != strat {
		fmt.Fprintf(os.Stderr, "note: grouping idiom not detected; ran the %s plan instead of %s\n", res.Strategy, strat)
	}

	if report != nil {
		if explain {
			fmt.Fprintln(os.Stderr, "--- EXPLAIN ---")
			fmt.Fprint(os.Stderr, report.Text())
		}
		if explainFile != "" {
			raw, jerr := report.JSON()
			if jerr != nil {
				return jerr
			}
			if werr := os.WriteFile(explainFile, append(raw, '\n'), 0o644); werr != nil {
				return werr
			}
			fmt.Fprintln(os.Stderr, "explain report written to", explainFile)
		}
	}

	if tr != nil {
		data := tr.Finish()
		// Exactness invariant: the per-span deltas must telescope to
		// the database's global counters. A violation means the trace
		// is lying about where the work went — fail loudly so CI
		// catches instrumentation drift.
		if verr := data.Verify(db.TraceCounters()); verr != nil {
			return fmt.Errorf("trace verification: %w", verr)
		}
		if trace {
			fmt.Fprint(os.Stderr, data.Text())
		}
		if traceFile != "" {
			if werr := data.WriteJSONFile(traceFile); werr != nil {
				return werr
			}
			fmt.Fprintln(os.Stderr, "trace written to", traceFile)
		}
	}

	// The one-shot analogue of scraping a live timber-serve: the same
	// registry families (engine latency histograms, strategy counters,
	// pool gauges), frozen after this run.
	if metricsFile != "" {
		var b strings.Builder
		if werr := eng.Registry().WritePrometheus(&b); werr != nil {
			return werr
		}
		if werr := os.WriteFile(metricsFile, []byte(b.String()), 0o644); werr != nil {
			return werr
		}
		fmt.Fprintln(os.Stderr, "metrics written to", metricsFile)
	}

	if !quiet {
		for _, tr := range trees {
			if err := xmltree.Serialize(os.Stdout, tr); err != nil {
				return err
			}
		}
	}
	strategyNote := res.Strategy.String() + " strategy"
	if res.Strategy == exec.StrategyPhysical {
		strategyNote += ", " + res.Matcher.String() + " matcher"
	}
	fmt.Fprintf(os.Stderr, "%d result trees in %v (%s); pool: %v\n",
		len(trees), elapsed.Round(time.Millisecond), strategyNote, db.Stats())
	if info, ierr := db.SizeInfo(); ierr == nil {
		size := fmt.Sprintf("size: %d bytes on disk (%d pages: %d heap, %d index); page codec %s",
			info.TotalBytes, info.TotalPages, info.HeapPages, info.IndexPages, info.Codec)
		if st := db.Stats(); st.UncompressedBytes > 0 {
			size += fmt.Sprintf(", write ratio %.2f", st.CompressionRatio())
		}
		fmt.Fprintln(os.Stderr, size)
	}
	return nil
}
