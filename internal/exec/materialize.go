package exec

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

// ErrMaterializeLimit reports that the late-materialization sink's
// memory budget (Options.MaxMaterializeBytes) was exceeded. The run
// returns this error and no result — never a partial one.
var ErrMaterializeLimit = errors.New("exec: materialization buffer limit exceeded")

// stageLimit is the most title postings the sink stages before it
// flushes them. A paper-sized E1 stages about a million titles, so it
// flushes a few dozen times; E1 at the harness's 12 000 articles
// (28 762 titles) flushes once, at end of stream.
const stageLimit = 1 << 16

// sink is the late-materialize sink — the only place of the streaming
// groupby pipeline that reads output value content. It consumes the
// shaped stream (group boundaries, binding rows, count rows) and builds
// the output trees. A group row's rank turns into its grouping value
// here, once per group, from the exchange's rank dictionary; in Count
// mode counts come from the aggregate rows and no value content is ever
// touched. In Titles mode each surviving value identifier becomes a
// placeholder child in stream order and its posting joins a stage;
// flush fetches the staged contents in heap-page order through the
// batched late-materialization API, so every heap page is pinned once
// per flush however the groups scatter the titles across the heap.
type sink struct {
	db    *storage.Snapshot
	spec  Spec
	ctx   context.Context
	limit int64
	// names[r] is the grouping value of rank r.
	names []string

	trees []*xmltree.Node
	cur   *xmltree.Node
	looks int
	bytes int64

	// The stage: placeholders and their postings, in stream order.
	targets []*xmltree.Node
	ps      []storage.Posting
	// flush scratch: pos[i] is staged posting i's place in page order.
	pos    []int32
	counts []int32
	sorted []storage.Posting
	vals   []string
}

func newSink(db *storage.Snapshot, spec Spec, ctx context.Context, limit int64, names []string) *sink {
	return &sink{db: db, spec: spec, ctx: ctx, limit: limit, names: names}
}

// drain pulls the stream to exhaustion, building the output trees.
func (s *sink) drain(top Iterator, batchSize int) error {
	if err := top.Open(); err != nil {
		return err
	}
	b := getBatch(batchSize)
	defer putBatch(b)
	basisTag := s.spec.BasisTag()
	valueTag := s.spec.ValuePath.LastTag()
	for {
		if err := ctxErr(s.ctx); err != nil {
			return err
		}
		if err := top.Next(b); err != nil {
			return err
		}
		if len(b.Rows) == 0 {
			return s.flush()
		}
		for _, r := range b.Rows {
			switch r.Kind {
			case rowGroup:
				name := s.names[r.Key]
				s.cur = xmltree.E(s.spec.OutTag, xmltree.Elem(basisTag, name))
				s.trees = append(s.trees, s.cur)
				if err := s.charge(int64(len(name))); err != nil {
					return err
				}
			case rowCount:
				s.cur.Append(xmltree.Elem("count", strconv.FormatInt(r.Ord, 10)))
			default:
				if s.spec.Mode != Titles || !r.HasAux {
					continue
				}
				// Stage the fetch; append a placeholder child now so the
				// value lands in stream order after the flush.
				ph := xmltree.Elem(valueTag, "")
				s.cur.Append(ph)
				s.targets = append(s.targets, ph)
				s.ps = append(s.ps, r.Aux)
			}
		}
		if len(s.ps) >= stageLimit {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
}

// flush fetches the staged contents and fills the placeholders. A
// counting pass over the postings' heap page IDs puts them in page
// order (stream order within a page), ContentsBatch reads them with one
// pin per page, and the contents land in their placeholders in stream
// order. The counting array spans the staged page IDs, so it is at most
// one int32 per page of the database file. Each title is charged
// against the budget as it lands, and the first one over it fails the
// flush; the flush's reads hold at most stageLimit titles, so the run
// stops at most one stage's content past the budget.
func (s *sink) flush() error {
	n := len(s.ps)
	if n == 0 {
		return nil
	}
	if err := ctxErr(s.ctx); err != nil {
		return err
	}
	lo, hi := s.ps[0].RID.Page, s.ps[0].RID.Page
	for _, p := range s.ps {
		lo, hi = min(lo, p.RID.Page), max(hi, p.RID.Page)
	}
	s.counts = resize(s.counts, int(hi-lo)+1)
	clear(s.counts)
	for _, p := range s.ps {
		s.counts[p.RID.Page-lo]++
	}
	var at int32
	for i, c := range s.counts {
		s.counts[i] = at
		at += c
	}
	s.pos = resize(s.pos, n)
	s.sorted = resize(s.sorted, n)
	for i, p := range s.ps {
		k := s.counts[p.RID.Page-lo]
		s.counts[p.RID.Page-lo]++
		s.pos[i] = k
		s.sorted[k] = p
	}
	s.vals = resize(s.vals, n)
	if err := s.db.ContentsBatch(s.sorted, s.vals); err != nil {
		return err
	}
	for i, t := range s.targets {
		t.Content = s.vals[s.pos[i]]
		if err := s.charge(int64(len(t.Content))); err != nil {
			return err
		}
	}
	s.looks += n
	s.targets, s.ps = s.targets[:0], s.ps[:0]
	return nil
}

// resize returns a slice of length n, reusing buf's array when it is
// large enough; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// charge accounts n bytes of materialized content against the budget.
func (s *sink) charge(n int64) error {
	if s.limit <= 0 {
		return nil
	}
	s.bytes += n
	if s.bytes > s.limit {
		return fmt.Errorf("%w: %d bytes of output content exceed the %d-byte budget", ErrMaterializeLimit, s.bytes, s.limit)
	}
	return nil
}
