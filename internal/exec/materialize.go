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

// sink is the late-materialize sink — the only place of the streaming
// groupby pipeline that reads output value content. It consumes the
// shaped stream (group boundaries, binding rows, count rows) and builds
// the output trees. A group row's rank turns into its grouping value
// here, once per group, from the exchange's rank dictionary; in Titles
// mode each batch's surviving value
// identifiers are fetched together through the batched
// late-materialization API, in Count mode counts come from the
// aggregate rows and no value content is ever touched.
type sink struct {
	db    storage.Reader
	spec  Spec
	ctx   context.Context
	limit int64
	// names[r] is the grouping value of rank r.
	names []string

	trees []*xmltree.Node
	cur   *xmltree.Node
	looks int
	bytes int64

	// per-batch fetch staging
	targets []*xmltree.Node
	ps      []storage.Posting
	vals    []string
}

func newSink(db storage.Reader, spec Spec, ctx context.Context, limit int64, names []string) *sink {
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
			return nil
		}
		s.targets = s.targets[:0]
		s.ps = s.ps[:0]
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
				// value lands in stream order after the batch fetch.
				ph := xmltree.Elem(valueTag, "")
				s.cur.Append(ph)
				s.targets = append(s.targets, ph)
				s.ps = append(s.ps, r.Aux)
			}
		}
		if len(s.ps) > 0 {
			if cap(s.vals) < len(s.ps) {
				s.vals = make([]string, len(s.ps))
			}
			s.vals = s.vals[:len(s.ps)]
			if err := s.db.ContentsBatch(s.ps, s.vals); err != nil {
				return err
			}
			for i, t := range s.targets {
				t.Content = s.vals[i]
				if err := s.charge(int64(len(s.vals[i]))); err != nil {
					return err
				}
			}
			s.looks += len(s.ps)
		}
	}
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
