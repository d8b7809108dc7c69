package main

import (
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/obs"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// query runs an XQuery-subset query, given as the single argument or
// via -f: it prints the naive TAX plan and (when the grouping idiom is
// detected) the GROUPBY rewrite, executes the query, and prints the
// result trees as XML.
//
// -plan auto (the default) runs groupby when the grouping idiom is
// detected and physical otherwise; the other exec.StrategyNames()
// values override it, and those that need the grouping rewrite fall
// back to the physical plan, with a note, when the idiom is not
// detected. -trace fails the
// command unless the span deltas sum to the database's global counters
// (the exactness invariant). With -explain as well, the report's
// actuals are joined from that same traced run.
func (c *cli) query(args []string) error {
	fs := c.flags("query")
	dbPath := fs.String("db", "timber.db", "database file")
	queryFile := fs.String("f", "", "read the query from this file")
	strategy := fs.String("plan", "auto", "execution strategy: "+strings.Join(exec.StrategyNames(), ", ")+" (auto = groupby when the grouping rewrite applies, else physical)")
	matcher := fs.String("matcher", "auto", "pattern matcher for the physical plan: auto (default: twig when every pattern node is tagged, else binary), binary, twig")
	poolMB := fs.Int("poolmb", 32, "buffer pool size in MiB")
	parallel := fs.Int("parallel", 0, "worker bound for the physical executors (0 = GOMAXPROCS, 1 = sequential)")
	maxMem := fs.Int64("maxmem", 0, "cap, in bytes, on the output content the streaming executor materializes; the query fails cleanly (no partial output) past it (0 = unlimited)")
	showPlans := fs.Bool("plans", true, "print the naive and rewritten plans")
	quiet := fs.Bool("q", false, "suppress result trees (print timing only)")
	explain := fs.Bool("explain", false, "print the EXPLAIN report (strategy, matcher, estimates vs actuals) to stderr")
	explainFile := fs.String("explainfile", "", "write the EXPLAIN report as JSON to this file")
	trace := fs.Bool("trace", false, "print a per-operator EXPLAIN ANALYZE tree to stderr")
	traceFile := fs.String("tracefile", "", "write the per-operator trace as JSON to this file")
	metricsFile := fs.String("metricsfile", "", "write the engine's metric registry as Prometheus text exposition to this file after the run")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := parse(fs, args); err != nil {
		return err
	}
	query := ""
	switch {
	case *queryFile != "":
		b, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		query = string(b)
	case fs.NArg() == 1:
		query = fs.Arg(0)
	default:
		return usageError("pass the query as the single argument or via -f")
	}

	strat, err := exec.ParseStrategy(*strategy)
	if err != nil {
		return err
	}
	mkind, err := match.ParseMatcher(*matcher)
	if err != nil {
		return err
	}
	wantExplain := *explain || *explainFile != ""
	wantTrace := *trace || *traceFile != ""
	if *pprofAddr != "" {
		// A failure to serve profiles is reported but never fails the
		// query.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(c.stderr, "timber query: pprof:", err)
			}
		}()
	}

	return withDB(*dbPath, false, storage.Options{PoolPages: poolPages(*poolMB)}, func(db *storage.DB) error {
		// Prepare through the engine facade: the same parse + rewrite +
		// cache pipeline timber-serve runs, so one query gives the same
		// bytes here and over HTTP.
		eng := engine.New(db, engine.Options{Parallelism: *parallel})
		pq, err := eng.Prepare(query)
		if err != nil {
			return err
		}
		if *showPlans {
			fmt.Fprintln(c.stdout, "--- naive plan (Sec. 4.1) ---")
			fmt.Fprint(c.stdout, plan.Format(pq.Naive))
			if pq.Applied {
				fmt.Fprintln(c.stdout, "--- GROUPBY rewrite (Sec. 4.1 Phase 2) ---")
				fmt.Fprint(c.stdout, plan.Format(pq.Rewritten))
			} else {
				fmt.Fprintln(c.stdout, "--- grouping idiom not detected; no rewrite ---")
			}
		}

		// The tracer snapshots the global counters at span boundaries,
		// so they must start from zero for the exactness invariant to
		// hold.
		var tr *obs.Tracer
		if wantTrace {
			db.ResetStats()
			tr = db.NewTracer("query")
		}

		ctx, stop := interruptible()
		defer stop()
		start := time.Now()
		opts := engine.ExecOptions{Strategy: strat, Matcher: mkind, Parallelism: *parallel, MaxMaterializeBytes: *maxMem, Tracer: tr}
		var res *engine.Result
		var report *engine.Explain
		if wantExplain {
			report, res, err = pq.ExplainExecute(ctx, opts)
		} else {
			res, err = pq.Execute(ctx, opts)
		}
		if err != nil {
			// Nothing has been printed yet: a run that exceeds -maxmem
			// (or fails any other way) produces no partial output.
			return err
		}
		elapsed := time.Since(start)
		if strat != exec.StrategyAuto && res.Strategy != strat {
			fmt.Fprintf(c.stderr, "note: grouping idiom not detected; ran the %s plan instead of %s\n", res.Strategy, strat)
		}

		if *explain {
			fmt.Fprintln(c.stderr, "--- EXPLAIN ---")
			fmt.Fprint(c.stderr, report.Text())
		}
		if *explainFile != "" {
			raw, err := report.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*explainFile, append(raw, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(c.stderr, "explain report written to", *explainFile)
		}

		if tr != nil {
			data := tr.Finish()
			// Exactness invariant: the per-span deltas must telescope to
			// the database's global counters. A violation means the
			// trace is lying about where the work went.
			if err := data.Verify(db.TraceCounters()); err != nil {
				return fmt.Errorf("trace verification: %w", err)
			}
			if *trace {
				fmt.Fprint(c.stderr, data.Text())
			}
			if *traceFile != "" {
				if err := data.WriteJSONFile(*traceFile); err != nil {
					return err
				}
				fmt.Fprintln(c.stderr, "trace written to", *traceFile)
			}
		}

		// The one-shot analogue of scraping a live timber-serve: the
		// same registry families, frozen after this run.
		if *metricsFile != "" {
			var b strings.Builder
			if err := eng.Registry().WritePrometheus(&b); err != nil {
				return err
			}
			if err := os.WriteFile(*metricsFile, []byte(b.String()), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(c.stderr, "metrics written to", *metricsFile)
		}

		if !*quiet {
			for _, t := range res.Trees {
				if err := xmltree.Serialize(c.stdout, t); err != nil {
					return err
				}
			}
		}
		strategyNote := res.Strategy.String() + " strategy"
		if res.Strategy == exec.StrategyPhysical {
			strategyNote += ", " + res.Matcher.String() + " matcher"
		}
		fmt.Fprintf(c.stderr, "%d result trees in %v (%s); pool: %v\n",
			len(res.Trees), elapsed.Round(time.Millisecond), strategyNote, db.Stats())
		if info, err := db.SizeInfo(); err == nil {
			size := fmt.Sprintf("size: %d bytes on disk (%d pages: %d heap, %d index); page codec %s",
				info.TotalBytes, info.TotalPages, info.HeapPages, info.IndexPages, info.Codec)
			if st := db.Stats(); st.UncompressedBytes > 0 {
				size += fmt.Sprintf(", write ratio %.2f", st.CompressionRatio())
			}
			fmt.Fprintln(c.stderr, size)
		}
		return nil
	})
}
