package exec

import (
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// mergeLOJIter is the streaming left-outer-join: witness rows (left —
// member plus populated grouping value) against value-path rows
// (right — member plus value leaf), equi-joined on the member
// identifier. Both inputs are member-major in document order, so the
// join is a single merge pass buffering only one member's value leaves
// at a time. A witness whose member has no value matches survives with
// HasAux=false — it still defines its group, contributing zero output
// values (and zero to a count), exactly like the materializing
// executor's empty valuesOf entry. Right rows whose member produced no
// witness are discarded. Because several witnesses can share a member
// (one per grouping-value match), the buffered value set is re-emitted
// per witness.
type mergeLOJIter struct {
	left   Iterator
	right  Iterator
	counts *opCounts

	opened bool
	lr     *rowReader
	rr     *rowReader
	// lookahead on the right stream
	rNext Row
	rOk   bool
	// value-leaf buffer for the current member
	bufMember xmltree.NodeID
	haveBuf   bool
	buf       []storage.Posting
	// expansion staging
	out    []Row
	outPos int
	done   bool
	// rightRows counts every right-side row consumed, including the
	// post-drain tail — the value-pair total the ExecStats
	// IndexPostings accounting needs.
	rightRows int64
}

func newMergeLOJ(left, right Iterator, batchSize int, counts *opCounts) *mergeLOJIter {
	return &mergeLOJIter{
		left:   left,
		right:  right,
		counts: counts,
		lr:     newRowReader(left, batchSize),
		rr:     newRowReader(right, batchSize),
	}
}

func (m *mergeLOJIter) Open() error {
	if m.opened {
		return nil
	}
	m.opened = true
	if err := m.left.Open(); err != nil {
		return err
	}
	if err := m.right.Open(); err != nil {
		return err
	}
	return m.primeRight()
}

func (m *mergeLOJIter) primeRight() error {
	r, ok, err := m.rr.next()
	if err != nil {
		return err
	}
	m.rNext, m.rOk = r, ok
	if ok {
		m.rightRows++
	}
	return nil
}

func (m *mergeLOJIter) Next(b *Batch) error {
	b.Reset()
	for !b.full() {
		if m.outPos < len(m.out) {
			n := len(m.out) - m.outPos
			if room := cap(b.Rows) - len(b.Rows); n > room {
				n = room
			}
			b.Rows = append(b.Rows, m.out[m.outPos:m.outPos+n]...)
			m.outPos += n
			continue
		}
		if m.done {
			break
		}
		span, err := m.lr.span()
		if err != nil {
			return err
		}
		if span == nil {
			// Drain the right tail so the value-pair count is complete:
			// IndexPostings counts every value pair, matched or not.
			if err := m.drainRight(); err != nil {
				return err
			}
			m.done = true
			break
		}
		// Process a run of left rows against the output batch directly;
		// the m.out staging is only for an expansion that overflows the
		// batch's remaining room.
		consumed := 0
		for consumed < len(span) && !b.full() {
			l := span[consumed]
			consumed++
			mid := l.Member.ID()
			if !m.haveBuf || m.bufMember != mid {
				if err := m.advanceRight(mid); err != nil {
					m.counts.in(consumed)
					m.lr.advance(consumed)
					return err
				}
			}
			if len(m.buf) == 0 {
				b.Rows = append(b.Rows, Row{Member: l.Member, Key: l.Key})
			} else if len(m.buf) <= cap(b.Rows)-len(b.Rows) {
				for _, v := range m.buf {
					b.Rows = append(b.Rows, Row{Member: l.Member, Key: l.Key, Aux: v, HasAux: true})
				}
			} else {
				m.out = m.out[:0]
				m.outPos = 0
				for _, v := range m.buf {
					m.out = append(m.out, Row{Member: l.Member, Key: l.Key, Aux: v, HasAux: true})
				}
				break
			}
		}
		m.counts.in(consumed)
		m.lr.advance(consumed)
	}
	m.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		m.counts.batch()
	}
	return nil
}

// drainRight consumes the rest of the right stream span-at-a-time,
// counting the rows into rightRows.
func (m *mergeLOJIter) drainRight() error {
	for m.rOk {
		span, err := m.rr.span()
		if err != nil {
			return err
		}
		if span == nil {
			m.rOk = false
			break
		}
		m.rightRows += int64(len(span))
		m.rr.advance(len(span))
	}
	return nil
}

// advanceRight consumes right rows up to and including member id,
// buffering id's value leaves and discarding earlier members'.
func (m *mergeLOJIter) advanceRight(id xmltree.NodeID) error {
	m.buf = m.buf[:0]
	m.bufMember = id
	m.haveBuf = true
	for m.rOk && !id.Less(m.rNext.Member.ID()) {
		if m.rNext.Member.ID() == id {
			m.buf = append(m.buf, m.rNext.Aux)
		}
		if err := m.primeRight(); err != nil {
			return err
		}
	}
	return nil
}

func (m *mergeLOJIter) Close() error {
	err := m.left.Close()
	if cerr := m.right.Close(); err == nil {
		err = cerr
	}
	m.lr.release()
	m.rr.release()
	return err
}
