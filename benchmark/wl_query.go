package main

import (
	"context"
	"fmt"
	"time"

	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/storage"
)

// queryWorkload runs one query text through engine.Query in process:
// e1_titles_warm (pool holds the file, never dropped) and
// e2_count_cold (pool a quarter of the file, dropped before every
// operation, outside the timed region).
type queryWorkload struct {
	noBackground
	cfg       config
	name      string
	text      string
	poolPages int
	cold      bool

	corpus *corpus
	db     *storage.DB
	eng    *engine.Engine
	ref    string
	fact   workloadFacts

	// The replayed stages of the traced run.
	pq      *engine.PreparedQuery
	branch  *pattern.Tree
	lastRun *exec.Result
	execMS  []float64
}

func (w *queryWorkload) setup() error {
	w.corpus = dblpCorpus(w.cfg.scaled(queryArticles), w.cfg.seed)
	db, _, err := createDB(w.cfg, w.name, w.poolPages)
	if err != nil {
		return err
	}
	w.db = db
	if err := loadCorpus(db, w.corpus); err != nil {
		return err
	}
	w.eng = engine.New(db, engine.Options{})
	_, err = w.eng.Prepare(w.text)
	return err
}

func (w *queryWorkload) reference() error {
	res, err := w.eng.Query(context.Background(), w.text, engine.ExecOptions{Strategy: exec.StrategyLogical})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	w.ref = treesDigest(serializeTrees(res.Trees))
	if w.pq, err = w.eng.Prepare(w.text); err != nil {
		return err
	}
	if !w.pq.Applied {
		return fmt.Errorf("%s: the grouping rewrite did not apply, so the query would not run the plan the workload is named for", w.name)
	}
	if w.branch, err = pattern.ParseTree(patBranch); err != nil {
		return err
	}
	w.fact = dbFacts(w.db, w.corpus, w.poolPages)
	x := w.pq.Explain(engine.ExecOptions{})
	w.fact.Labels = map[string]string{"strategy": x.Strategy, "matcher": x.Matcher}
	return nil
}

func (w *queryWorkload) op(int) (time.Duration, bool) {
	if err := w.drop(); err != nil {
		w.cfg.failures.add("%s: drop cache: %v", w.name, err)
		return 0, false
	}
	t0 := time.Now()
	res, err := w.eng.Query(context.Background(), w.text, engine.ExecOptions{})
	var parts []string
	if err == nil {
		parts = serializeTrees(res.Trees)
	}
	d := time.Since(t0)
	if err != nil {
		w.cfg.failures.add("%s: %v", w.name, err)
		return d, false
	}
	if treesDigest(parts) != w.ref {
		w.cfg.failures.add("%s: result differs from the logical reference", w.name)
		return d, false
	}
	return d, true
}

// tracedOp times the same call as op for the root span, then replays
// the stages: prepare, plan pick, exec.Run (under it a match.Open
// drain of the article{title,author} branch the plan joins, itself
// over tag-cursor scans of those tags, and ContentsBatch over the
// witnesses' value nodes), and serialization.
func (w *queryWorkload) tracedOp(i int, t *trace) (time.Duration, bool) {
	start := time.Now()
	d, ok := w.op(i)
	if !ok {
		return d, false
	}
	root := stage{Name: "engine.Query + serialize", Layer: layerRoot, Dur: d}
	st, err := w.replay()
	if err != nil {
		w.cfg.failures.add("%s: replay: %v", w.name, err)
		return d, false
	}
	root.Children = st
	t.addOp(i, start, root)
	return d, true
}

// drop empties the buffer pool on the cold workload, always outside a
// timed region.
func (w *queryWorkload) drop() error {
	if !w.cold {
		return nil
	}
	return w.db.DropCache()
}

func (w *queryWorkload) replay() ([]stage, error) {
	t0 := time.Now()
	pq, _, err := w.eng.PrepareCached(w.text)
	if err != nil {
		return nil, err
	}
	prepare := time.Since(t0)

	t0 = time.Now()
	x := pq.Explain(engine.ExecOptions{})
	pick := time.Since(t0)
	strat, err := exec.ParseStrategy(x.Strategy)
	if err != nil {
		return nil, err
	}

	if err := w.drop(); err != nil {
		return nil, err
	}
	spec := pq.Spec
	spec.Strategy = strat
	t0 = time.Now()
	res, err := exec.Run(w.db, spec, exec.Options{})
	if err != nil {
		return nil, err
	}
	run := time.Since(t0)
	w.lastRun = res
	w.execMS = append(w.execMS, float64(run.Nanoseconds())/1e6)

	if err := w.drop(); err != nil {
		return nil, err
	}
	scan, err := timeTagScans(w.db, w.branch)
	if err != nil {
		return nil, err
	}

	if err := w.drop(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	m, err := match.Open(w.db, w.branch, match.MatcherAuto)
	if err != nil {
		return nil, err
	}
	var authors, titles []storage.Posting
	for {
		b, more := m.Next()
		if !more {
			break
		}
		titles = append(titles, b["$2"])
		authors = append(authors, b["$3"])
	}
	err = m.Err()
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	matchDur := time.Since(t0)

	// The plan reads every witness's grouping value, and in titles
	// mode its output value too; a count reads no output value.
	lookups := authors
	if spec.Mode == exec.Titles {
		lookups = append(lookups, titles...)
	}
	if err := w.drop(); err != nil {
		return nil, err
	}
	out := make([]string, len(lookups))
	t0 = time.Now()
	if err := w.db.ContentsBatch(lookups, out); err != nil {
		return nil, err
	}
	content := time.Since(t0)

	t0 = time.Now()
	serializeTrees(res.Trees)
	ser := time.Since(t0)

	return []stage{
		{Name: "engine.PrepareCached", Layer: layerEngine, Dur: prepare},
		{Name: "PreparedQuery.Explain (plan pick)", Layer: layerPlanner, Dur: pick},
		{Name: "exec.Run " + x.Strategy, Layer: layerExec, Dur: run, Children: []stage{
			{Name: "match.Open drain article{title,author}", Layer: layerMatch, Dur: matchDur, Children: []stage{
				{Name: "OpenTagCursor drains", Layer: layerTagscan, Dur: scan},
			}},
			{Name: "ContentsBatch over the witnesses", Layer: layerContent, Dur: content},
		}},
		{Name: "serialize trees", Layer: layerXMLTree, Dur: ser},
	}, nil
}

// timeTagScans drains a tag cursor for every tag of the pattern, the
// index work a match of the pattern cannot avoid.
func timeTagScans(db *storage.DB, pt *pattern.Tree) (time.Duration, error) {
	t0 := time.Now()
	var walk func(n *pattern.Node) error
	walk = func(n *pattern.Node) error {
		if tag := n.TagConstraint(); tag != "" {
			c := db.OpenTagCursor(tag)
			for {
				if _, more := c.Next(); !more {
					break
				}
			}
			if err := c.Close(); err != nil {
				return err
			}
		}
		for _, ch := range n.Children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	err := walk(pt.Root)
	return time.Since(t0), err
}

// runStrategy times one exec.Run of the query under a named strategy.
func (w *queryWorkload) runStrategy(name string) (time.Duration, error) {
	strat, err := exec.ParseStrategy(name)
	if err != nil {
		return 0, err
	}
	if err := w.drop(); err != nil {
		return 0, err
	}
	spec := w.pq.Spec
	spec.Strategy = strat
	t0 := time.Now()
	_, err = exec.Run(w.db, spec, exec.Options{})
	return time.Since(t0), err
}

// tracedMetrics reports the exec layer from the replayed exec.Run
// calls, the paper's direct plan and its batch variant run once each
// (so the Sec. 6 ratios stay visible next to exec_ms), and the match
// layer on the branch the plan joins.
func (w *queryWorkload) tracedMetrics(out map[string]float64) error {
	if w.lastRun == nil {
		return fmt.Errorf("no traced operation completed")
	}
	out["exec_ms"] = median(w.execMS)
	out["exec_value_lookups"] = float64(w.lastRun.Stats.ValueLookups)
	out["exec_index_postings"] = float64(w.lastRun.Stats.IndexPostings)
	out["exec_groups"] = float64(w.lastRun.Stats.Groups)
	for strat, name := range map[string]string{"direct": "exec_direct_ms", "direct-batch": "exec_direct_batch_ms"} {
		d, err := w.runStrategy(strat)
		if err != nil {
			return err
		}
		out[name] = float64(d.Nanoseconds()) / 1e6
	}
	return matchLayer(w.db, branchOnly, w.drop, out)
}

func (w *queryWorkload) counters() (counters, error) {
	c := dbCounters(w.db)
	cs := w.eng.CacheStats()
	c.cacheHits, c.cacheMisses = cs.Hits, cs.Misses
	return c, nil
}

func (w *queryWorkload) layerDB() *storage.DB { return w.db }
func (w *queryWorkload) facts() workloadFacts { return w.fact }

func (w *queryWorkload) close() error {
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}
