package match

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"timber/internal/obs"
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// MatcherKind selects the algorithm that embeds a pattern tree into the
// database. The zero value is MatcherAuto.
type MatcherKind int

const (
	// MatcherAuto lets the caller's planner decide; at this package's
	// level (no statistics) it resolves structurally — holistic when the
	// pattern qualifies, binary otherwise.
	MatcherAuto MatcherKind = iota
	// MatcherBinary is the cascaded binary structural-join matcher of
	// Sec. 5.2: materialize per-node candidate lists, then resolve one
	// pattern edge at a time in greedy cost order.
	MatcherBinary
	// MatcherTwig is the holistic twig-join matcher (TwigStack family):
	// per-node posting streams off the B+tree cursors with per-node
	// stacks encoding partial root-to-leaf paths; candidate lists are
	// never materialized.
	MatcherTwig
)

var matcherNames = map[MatcherKind]string{
	MatcherAuto:   "auto",
	MatcherBinary: "binary",
	MatcherTwig:   "twig",
}

func (k MatcherKind) String() string {
	if n, ok := matcherNames[k]; ok {
		return n
	}
	return fmt.Sprintf("matcher(%d)", int(k))
}

// ParseMatcher resolves a matcher name ("" means auto).
func ParseMatcher(name string) (MatcherKind, error) {
	if name == "" {
		return MatcherAuto, nil
	}
	for k, n := range matcherNames {
		if n == name {
			return k, nil
		}
	}
	return MatcherAuto, fmt.Errorf("match: unknown matcher %q (have %s)", name, strings.Join(MatcherNames(), ", "))
}

// MatcherNames lists the accepted matcher names, sorted.
func MatcherNames() []string {
	out := make([]string, 0, len(matcherNames))
	for _, n := range matcherNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Matcher is the unified streaming face of pattern matching: open a
// matcher, pull bindings until ok=false, check Err, Close. Every
// implementation yields the same binding sequence — per-document
// witnesses sorted lexicographically by pre-order node identifiers,
// documents ascending — so matchers are interchangeable without
// affecting results, only access patterns.
type Matcher interface {
	// Next returns the next witness binding, or ok=false at the end of
	// the stream, after Close, or on error — check Err. The binding is
	// the matcher's own and is valid only until the following Next, which
	// overwrites it in place; Clone what must outlive that.
	Next() (DBBinding, bool)
	// Stats returns the matcher's access counters; Witnesses counts the
	// bindings returned so far.
	Stats() *DBStats
	// Err reports the first error the matcher hit, if any.
	Err() error
	// Close releases the matcher's resources (snapshot pins, open
	// cursors, staged rows); Next reports ok=false afterwards. Idempotent.
	Close() error
}

// Open returns a streaming matcher of the requested kind over the
// database. MatcherAuto (and a MatcherTwig request on a pattern the
// holistic matcher cannot drive, i.e. one with an untagged node)
// resolves to the binary cascade; Stats().Matcher records what actually
// ran.
func Open(db storage.Reader, pt *pattern.Tree, kind MatcherKind) (Matcher, error) {
	if kind != MatcherBinary && TwigApplicable(pt) {
		return openTwig(db, pt)
	}
	return OpenCursor(db, pt)
}

// TwigApplicable reports whether the holistic matcher can drive the
// pattern: every node must carry a tag constraint, because the twig
// streams are tag-index cursors (an untagged node would need a full
// database scan, which is the binary path's fallback).
func TwigApplicable(pt *pattern.Tree) bool {
	for _, pn := range preorder(pt.Root) {
		if pn.TagConstraint() == "" {
			return false
		}
	}
	return true
}

// MatchKindObs is MatchDBObs with an explicit matcher kind: it computes
// the full witness slice with the chosen algorithm, under the same span
// and cancellation contract. The binding output is byte-identical
// across kinds and parallelisms; only the access counters differ.
// parallelism applies to the binary cascade's per-document join phase —
// the holistic matcher is single-pass by construction.
func MatchKindObs(ctx context.Context, db storage.Reader, pt *pattern.Tree, kind MatcherKind, parallelism int, sp *obs.Span) ([]DBBinding, *DBStats, error) {
	if kind == MatcherBinary || !TwigApplicable(pt) {
		return MatchDBObs(ctx, db, pt, parallelism, sp)
	}
	if kind == MatcherAuto {
		kind = MatcherTwig
	}
	m, err := openTwig(db, pt)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	twigSp := sp.Child("twig: pattern match")
	var out []DBBinding
	for {
		if ctx != nil && len(out)%1024 == 0 {
			select {
			case <-ctx.Done():
				twigSp.End()
				return nil, nil, ctx.Err()
			default:
			}
		}
		b, ok := m.Next()
		if !ok {
			break
		}
		out = append(out, b.Clone())
	}
	if err := m.Err(); err != nil {
		twigSp.End()
		return nil, nil, err
	}
	stats := m.Stats()
	twigSp.Add("candidates", int64(stats.Candidates))
	twigSp.Add("postings_scanned", int64(stats.PostingsScanned))
	twigSp.Add("record_filter_fetches", int64(stats.RecordFilterFetches))
	twigSp.Add("path_solutions", int64(stats.IntermediateBindings))
	twigSp.End()
	sp.Add("witnesses", int64(len(out)))
	if cerr := m.Close(); cerr != nil {
		return nil, nil, cerr
	}
	return out, stats, nil
}

// OpenMem streams the in-memory matcher's bindings through the Matcher
// interface, unifying the three historical code paths behind one face.
// Bindings carry postings synthesized from the nodes' intervals; the
// record locations (RIDs) are zero, since in-memory trees have no
// stored records.
func OpenMem(pt *pattern.Tree, trees []*xmltree.Node) Matcher {
	labels := pt.Labels()
	m := &memMatcher{out: witnesses{labels: labels, rows: rowSet{width: len(labels)}}}
	m.stats.Matcher = "mem"
	for _, b := range Match(pt, trees) {
		for _, l := range labels {
			m.out.rows.posts = append(m.out.rows.posts, storage.Posting{Interval: b[l].Interval})
		}
	}
	return m
}

type memMatcher struct {
	out   witnesses
	stats DBStats
}

func (m *memMatcher) Next() (DBBinding, bool) {
	b, ok := m.out.next()
	if ok {
		m.stats.Witnesses++
	}
	return b, ok
}

func (m *memMatcher) Stats() *DBStats { return &m.stats }
func (m *memMatcher) Err() error      { return nil }

func (m *memMatcher) Close() error {
	m.out.drop()
	return nil
}
