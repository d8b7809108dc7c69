package match

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"timber/internal/obs"
	"timber/internal/pattern"
	"timber/internal/storage"
)

// MatcherKind selects the algorithm that embeds a pattern tree into the
// database. The zero value is MatcherAuto.
type MatcherKind int

const (
	// MatcherAuto resolves by rule (see Resolve): holistic when every
	// pattern node is tagged, binary otherwise.
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

// Resolve is the one place the auto-matcher rule lives: the kind of
// matcher that runs pt when kind is requested. Every request but
// MatcherBinary gets the holistic twig matcher when it can drive the
// pattern (TwigApplicable); everything else gets the binary cascade.
// The result is never MatcherAuto.
func Resolve(pt *pattern.Tree, kind MatcherKind) MatcherKind {
	if kind != MatcherBinary && TwigApplicable(pt) {
		return MatcherTwig
	}
	return MatcherBinary
}

// Open pins one snapshot of the database and returns a streaming
// matcher over it, of the kind Resolve picks for the request;
// Stats().Matcher records what ran. The twig matcher reads as it
// streams and releases the pin on Close; the binary cursor does every
// read before Open returns and releases it there.
func Open(db *storage.DB, pt *pattern.Tree, kind MatcherKind) (Matcher, error) {
	sn := db.Snapshot()
	if Resolve(pt, kind) == MatcherBinary {
		defer sn.Close()
		return openCursor(sn, pt)
	}
	m, err := openTwig(sn, pt)
	if err != nil {
		sn.Close()
		return nil, err
	}
	m.pin = sn
	return m, nil
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

// MatchKindObs computes the full witness slice against the caller's
// snapshot with the algorithm Resolve picks for kind. The binding
// output is byte-identical across kinds and parallelisms; only the
// access counters differ. parallelism applies to the binary cascade's
// per-document join phase — the holistic matcher is single-pass by
// construction. A non-nil ctx cancels the match (ctx.Err(), no
// bindings); a non-nil sp gets per-phase child spans with the access
// counters.
func MatchKindObs(ctx context.Context, db *storage.Snapshot, pt *pattern.Tree, kind MatcherKind, parallelism int, sp *obs.Span) ([]DBBinding, *DBStats, error) {
	if Resolve(pt, kind) == MatcherBinary {
		return matchDBObs(ctx, db, pt, parallelism, sp)
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
