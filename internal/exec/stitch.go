package exec

// stitchIter is the stitching operator: it detects group boundaries in
// the sorted row stream (a run of equal grouping-value ranks is a
// group) and weaves in a rowGroup row carrying the rank ahead of each
// run — the skeleton of the output trees, still identifier-only.
// Binding rows pass through beneath their group row; the sink (or the
// aggregation operator, in count mode) consumes the shaped stream.
//
// Boundary rows are staged through a small queue so a batch boundary
// can fall anywhere — even between a group row and its first binding —
// without changing the emitted sequence.
type stitchIter struct {
	child  Iterator
	counts *opCounts

	opened  bool
	rdr     *rowReader
	haveKey bool
	lastKey uint32
	q       []Row
	qPos    int
	done    bool
}

func newStitch(child Iterator, batchSize int, counts *opCounts) *stitchIter {
	return &stitchIter{child: child, counts: counts, rdr: newRowReader(child, batchSize)}
}

func (s *stitchIter) Open() error {
	if s.opened {
		return nil
	}
	s.opened = true
	return s.child.Open()
}

func (s *stitchIter) Next(b *Batch) error {
	b.Reset()
	for !b.full() {
		if s.qPos < len(s.q) {
			n := len(s.q) - s.qPos
			if room := cap(b.Rows) - len(b.Rows); n > room {
				n = room
			}
			b.Rows = append(b.Rows, s.q[s.qPos:s.qPos+n]...)
			s.qPos += n
			continue
		}
		if s.done {
			break
		}
		span, err := s.rdr.span()
		if err != nil {
			return err
		}
		if span == nil {
			s.done = true
			break
		}
		// Weave a run of input rows straight into the output batch; the
		// queue is only for a binding whose group row took the batch's
		// last slot.
		s.q = s.q[:0]
		s.qPos = 0
		consumed := 0
		for consumed < len(span) {
			room := cap(b.Rows) - len(b.Rows)
			if room == 0 {
				break
			}
			r := span[consumed]
			if !s.haveKey || r.Key != s.lastKey {
				s.haveKey = true
				s.lastKey = r.Key
				b.Rows = append(b.Rows, Row{Kind: rowGroup, Key: r.Key})
				room--
			}
			consumed++
			if room == 0 {
				s.q = append(s.q, r)
				break
			}
			b.Rows = append(b.Rows, r)
		}
		s.counts.in(consumed)
		s.rdr.advance(consumed)
	}
	s.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		s.counts.batch()
	}
	return nil
}

func (s *stitchIter) Close() error {
	s.rdr.release()
	return s.child.Close()
}
