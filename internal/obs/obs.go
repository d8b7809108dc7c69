// Package obs is the query-level observability layer: an
// EXPLAIN-ANALYZE-style tracer that attributes wall time, buffer-pool
// activity and index-traversal work to individual operator phases of a
// physical plan.
//
// The design goal is that tracing is a correctness tool, not logging:
//
//   - Zero cost when disabled. A nil *Tracer (and the nil *Span every
//     method on it hands out) turns every call into a nil-check and
//     nothing else, so executors thread spans unconditionally and the
//     untraced path stays byte-identical and unmeasurably slower.
//   - Exact when enabled. Span counter deltas come from snapshots of
//     the storage layer's atomic counters taken at span begin/end on
//     the orchestrating goroutine. Operator phases execute
//     sequentially (each phase may fan out internally, but joins its
//     workers before the phase ends), so sibling spans never overlap
//     and the root span's delta telescopes: the sum of every span's
//     self delta equals the root delta, which equals the global
//     counters for the run. Verify checks this invariant.
//
// Timings use Go's monotonic clock (time.Since on a time.Now origin).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
	"unicode/utf8"
)

// Counters is a snapshot of the storage-layer activity counters a span
// attributes to itself: the buffer-pool counters of internal/pagestore
// plus the index-traversal counters of internal/btree. Deltas of two
// snapshots are themselves Counters.
type Counters struct {
	// Fetches is the number of logical page reads (pagestore).
	Fetches uint64 `json:"fetches"`
	// Hits is the number of fetches served from the buffer pool.
	Hits uint64 `json:"hits"`
	// PhysicalReads is the number of pages read from disk.
	PhysicalReads uint64 `json:"physical_reads"`
	// PhysicalWrites is the number of pages written to disk.
	PhysicalWrites uint64 `json:"physical_writes"`
	// NodeVisits is the number of B+tree pages examined during descents
	// and scans (btree).
	NodeVisits uint64 `json:"node_visits"`
	// LeafScans is the number of B+tree leaf pages cursored by
	// iterators (btree).
	LeafScans uint64 `json:"leaf_scans"`
}

// Sub returns c - o, field by field.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Fetches:        c.Fetches - o.Fetches,
		Hits:           c.Hits - o.Hits,
		PhysicalReads:  c.PhysicalReads - o.PhysicalReads,
		PhysicalWrites: c.PhysicalWrites - o.PhysicalWrites,
		NodeVisits:     c.NodeVisits - o.NodeVisits,
		LeafScans:      c.LeafScans - o.LeafScans,
	}
}

// Plus returns c + o, field by field.
func (c Counters) Plus(o Counters) Counters {
	return Counters{
		Fetches:        c.Fetches + o.Fetches,
		Hits:           c.Hits + o.Hits,
		PhysicalReads:  c.PhysicalReads + o.PhysicalReads,
		PhysicalWrites: c.PhysicalWrites + o.PhysicalWrites,
		NodeVisits:     c.NodeVisits + o.NodeVisits,
		LeafScans:      c.LeafScans + o.LeafScans,
	}
}

// fitsIn reports whether every field of c is <= the matching field of o.
func (c Counters) fitsIn(o Counters) bool {
	return c.Fetches <= o.Fetches &&
		c.Hits <= o.Hits &&
		c.PhysicalReads <= o.PhysicalReads &&
		c.PhysicalWrites <= o.PhysicalWrites &&
		c.NodeVisits <= o.NodeVisits &&
		c.LeafScans <= o.LeafScans
}

// IsZero reports whether every counter is zero.
func (c Counters) IsZero() bool { return c == Counters{} }

func (c Counters) String() string {
	return fmt.Sprintf("fetches=%d hits=%d reads=%d writes=%d nodeVisits=%d leafScans=%d",
		c.Fetches, c.Hits, c.PhysicalReads, c.PhysicalWrites, c.NodeVisits, c.LeafScans)
}

// SnapshotFunc captures the current global counters. The storage layer
// provides one wired to its atomic counters (storage.DB.NewTracer);
// snapshots must be cheap and side-effect free.
type SnapshotFunc func() Counters

// Tracer collects one query execution's span tree. A nil *Tracer is
// the disabled tracer: Start returns a nil *Span and Finish returns
// nil, so callers never branch on enablement themselves.
//
// Spans must be created and ended on the goroutine orchestrating the
// plan (worker goroutines inside a phase do not touch the tracer);
// this is what makes snapshot deltas exact without synchronization.
type Tracer struct {
	snap SnapshotFunc
	root *Span
}

// New creates an enabled tracer whose root span begins immediately.
// snap supplies global counter snapshots; nil means all-zero counters
// (wall-clock-only tracing).
func New(name string, snap SnapshotFunc) *Tracer {
	if snap == nil {
		snap = func() Counters { return Counters{} }
	}
	t := &Tracer{snap: snap}
	t.root = newSpan(t, name)
	return t
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Start opens a new span directly under the root. Nil-safe.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name)
}

// Finish ends the root span (and any still-open descendants) and
// returns the completed span tree. Nil-safe: returns nil when
// disabled. Finish is idempotent: the first call fixes the tree, and
// every later call returns that same immutable *SpanData — so the
// engine can finish a run's tracer and its caller read the same tree.
func (t *Tracer) Finish() *SpanData {
	if t == nil {
		return nil
	}
	t.root.End()
	return t.root.data
}

// Span is one operator phase under measurement. All methods are
// nil-safe no-ops, so executors keep a single code path whether or not
// a tracer is attached.
type Span struct {
	t        *Tracer
	name     string
	start    time.Time
	startC   Counters
	ops      map[string]int64
	children []*Span
	data     *SpanData
}

func newSpan(t *Tracer, name string) *Span {
	return &Span{t: t, name: name, start: time.Now(), startC: t.snap()}
}

// Child opens a sub-span. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(s.t, name)
	s.children = append(s.children, c)
	return c
}

// Add accumulates an operator-specific counter (postings scanned,
// witnesses produced, ...) on the span. Nil-safe.
func (s *Span) Add(key string, n int64) {
	if s == nil {
		return
	}
	if s.ops == nil {
		s.ops = map[string]int64{}
	}
	s.ops[key] += n
}

// End closes the span, snapshotting the counters. Children still open
// are ended first, so their deltas stay nested inside the parent's.
// End is idempotent and nil-safe.
func (s *Span) End() {
	if s == nil || s.data != nil {
		return
	}
	d := &SpanData{Name: s.name, Ops: s.ops}
	for _, c := range s.children {
		c.End()
		d.Children = append(d.Children, c.data)
	}
	d.WallNS = time.Since(s.start).Nanoseconds()
	d.Delta = s.t.snap().Sub(s.startC)
	s.data = d
}

// SpanData is the completed, serializable form of a span.
type SpanData struct {
	// Name identifies the operator phase.
	Name string `json:"name"`
	// WallNS is the span's wall time in nanoseconds (monotonic clock).
	WallNS int64 `json:"wall_ns"`
	// Delta is the change in global counters over the span, children
	// included.
	Delta Counters `json:"counters"`
	// Ops carries operator-specific counts (postings, witnesses, ...).
	Ops map[string]int64 `json:"ops,omitempty"`
	// Children are the nested phases, in execution order.
	Children []*SpanData `json:"children,omitempty"`
}

// Self returns the span's counter delta net of its children — the
// work attributed to the span's own code between (and around) its
// sub-phases. Summing Self over a whole tree telescopes to the root
// Delta exactly.
func (d *SpanData) Self() Counters {
	out := d.Delta
	for _, c := range d.Children {
		out = out.Sub(c.Delta)
	}
	return out
}

// SumSelf totals Self over the span and every descendant. By
// construction this equals d.Delta; Verify re-derives it as a check.
func (d *SpanData) SumSelf() Counters {
	out := d.Self()
	for _, c := range d.Children {
		out = out.Plus(c.SumSelf())
	}
	return out
}

// Spans counts the spans in the tree.
func (d *SpanData) Spans() int {
	n := 1
	for _, c := range d.Children {
		n += c.Spans()
	}
	return n
}

// Verify checks the exactness invariant against the run's global
// counters (the storage counters accumulated since they were reset at
// run start): the root delta must equal the global counters, every
// child sum must fit inside its parent (no span attributes more work
// than its parent observed), and the self deltas must sum back to the
// global counters. A violation means a span leaked work outside the
// measured window — a bug in the instrumentation, never a rounding
// artifact, since every quantity is an exact integer counter.
func (d *SpanData) Verify(global Counters) error {
	if d.Delta != global {
		return fmt.Errorf("obs: root span %q delta (%v) != global counters (%v)", d.Name, d.Delta, global)
	}
	if sum := d.SumSelf(); sum != global {
		return fmt.Errorf("obs: span self deltas sum to %v, global counters are %v", sum, global)
	}
	return d.verifyNesting()
}

func (d *SpanData) verifyNesting() error {
	var sum Counters
	for _, c := range d.Children {
		if err := c.verifyNesting(); err != nil {
			return err
		}
		sum = sum.Plus(c.Delta)
	}
	if !sum.fitsIn(d.Delta) {
		return fmt.Errorf("obs: span %q: children deltas (%v) exceed parent delta (%v)", d.Name, sum, d.Delta)
	}
	return nil
}

// WriteJSON writes the span tree as indented JSON.
func (d *SpanData) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteJSONFile writes the span tree as indented JSON to path.
func (d *SpanData) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteText renders the span tree as an aligned EXPLAIN-ANALYZE-style
// text tree: one line per span with wall time, pool/index counter
// deltas and operator counts.
func (d *SpanData) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, d.Text())
	return err
}

// Text renders the tree as a string; see WriteText.
func (d *SpanData) Text() string {
	var b []byte
	b = d.render(b, "", "", true)
	return string(b)
}

func (d *SpanData) render(b []byte, linePrefix, childPrefix string, isRoot bool) []byte {
	wall := time.Duration(d.WallNS).Round(time.Microsecond)
	b = append(b, linePrefix...)
	b = append(b, d.Name...)
	pad := 40 - utf8.RuneCountInString(linePrefix) - utf8.RuneCountInString(d.Name)
	if pad < 1 {
		pad = 1
	}
	for i := 0; i < pad; i++ {
		b = append(b, ' ')
	}
	b = append(b, fmt.Sprintf("%10v  %s", wall, d.Delta.String())...)
	if len(d.Ops) > 0 {
		keys := make([]string, 0, len(d.Ops))
		for k := range d.Ops {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, "  ["...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, fmt.Sprintf("%s=%d", k, d.Ops[k])...)
		}
		b = append(b, ']')
	}
	b = append(b, '\n')
	for i, c := range d.Children {
		last := i == len(d.Children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		b = c.render(b, childPrefix+branch, childPrefix+cont, false)
	}
	return b
}
