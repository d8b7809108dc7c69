package main

import (
	"fmt"
	"time"

	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/storage"
)

// twigWorkload is what timber-match does, without the process start:
// one operation drains each of the three pattern trees once through
// match.Open with the matcher left on auto. The patterns differ in
// cost by design (the sparse chain is the cheap one), so timing one
// full cycle per operation lets a gain on one pattern that costs
// another show in the same number; the per-pattern split is in the
// match_* layer metrics.
type twigWorkload struct {
	noBackground
	cfg config

	corpus *corpus
	db     *storage.DB
	pats   []*pattern.Tree
	labels [][]string
	refs   []witnessDigest
	fact   workloadFacts
}

func (w *twigWorkload) setup() error {
	w.corpus = twigCorpus(w.cfg.scaled(twigDocs), twigArticlesPerDoc, w.cfg.seed)
	db, _, err := createDB(w.cfg, wlTwig, warmPoolPages)
	if err != nil {
		return err
	}
	w.db = db
	return loadCorpus(db, w.corpus)
}

func (w *twigWorkload) reference() error {
	w.pats, w.labels, w.refs = nil, nil, nil
	for _, p := range twigPatterns {
		pt, err := pattern.ParseTree(p.Text)
		if err != nil {
			return fmt.Errorf("pattern %s: %w", p.Name, err)
		}
		bs, _, err := match.MatchDBPar(w.db, pt, 1)
		if err != nil {
			return fmt.Errorf("reference %s: %w", p.Name, err)
		}
		labels := pt.Labels()
		var ref witnessDigest
		for _, b := range bs {
			ref.add(labels, b)
		}
		if ref.Count == 0 {
			return fmt.Errorf("reference %s: no witnesses, the pattern would measure nothing", p.Name)
		}
		w.pats = append(w.pats, pt)
		w.labels = append(w.labels, labels)
		w.refs = append(w.refs, ref)
	}
	w.fact = dbFacts(w.db, w.corpus, warmPoolPages)
	return nil
}

// drainPattern runs one pattern to its last witness and returns the
// time, the digest of the witnesses and the matcher's counters.
func drainPattern(db *storage.DB, pt *pattern.Tree, labels []string, kind match.MatcherKind) (time.Duration, witnessDigest, *match.DBStats, error) {
	var d witnessDigest
	t0 := time.Now()
	m, err := match.Open(db, pt, kind)
	if err != nil {
		return 0, d, nil, err
	}
	for {
		b, more := m.Next()
		if !more {
			break
		}
		d.add(labels, b)
	}
	err = m.Err()
	st := m.Stats()
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return time.Since(t0), d, st, err
}

func (w *twigWorkload) drain(i int) (time.Duration, bool) {
	d, got, _, err := drainPattern(w.db, w.pats[i], w.labels[i], match.MatcherAuto)
	if err != nil {
		w.cfg.failures.add("pattern %s: %v", twigPatterns[i].Name, err)
		return d, false
	}
	if got != w.refs[i] {
		w.cfg.failures.add("pattern %s: %d witnesses (digest %x), the binary reference has %d (%x)", twigPatterns[i].Name, got.Count, got.Sum, w.refs[i].Count, w.refs[i].Sum)
		return d, false
	}
	return d, true
}

func (w *twigWorkload) op(int) (time.Duration, bool) {
	var total time.Duration
	ok := true
	for i := range w.pats {
		d, good := w.drain(i)
		total += d
		ok = ok && good
	}
	return total, ok
}

// tracedOp records the cycle as the root and, under it, each pattern's
// drain with a replay of the tag-cursor scans it sits on.
func (w *twigWorkload) tracedOp(i int, t *trace) (time.Duration, bool) {
	start := time.Now()
	root := stage{Name: "pattern cycle", Layer: layerRoot}
	ok := true
	for p := range w.pats {
		d, good := w.drain(p)
		ok = ok && good
		root.Dur += d
		root.Children = append(root.Children, stage{Name: "match.Open drain " + twigPatterns[p].Name, Layer: layerMatch, Dur: d})
	}
	if !ok {
		return root.Dur, false
	}
	for p := range w.pats {
		scan, err := timeTagScans(w.db, w.pats[p])
		if err != nil {
			w.cfg.failures.add("pattern %s: tag scans: %v", twigPatterns[p].Name, err)
			return root.Dur, false
		}
		root.Children[p].Children = []stage{{Name: "OpenTagCursor drains", Layer: layerTagscan, Dur: scan}}
	}
	t.addOp(i, start, root)
	return root.Dur, true
}

func (w *twigWorkload) tracedMetrics(out map[string]float64) error {
	return matchLayer(w.db, twigPatterns, nil, out)
}

func (w *twigWorkload) counters() (counters, error) { return dbCounters(w.db), nil }
func (w *twigWorkload) layerDB() *storage.DB        { return w.db }
func (w *twigWorkload) facts() workloadFacts        { return w.fact }

func (w *twigWorkload) close() error {
	if w.db == nil {
		return nil
	}
	err := w.db.Close()
	w.db = nil
	return err
}
