package exec

import (
	"cmp"
	"slices"

	"timber/internal/sjoin"
	"timber/internal/storage"
)

// stepIter is the streaming selection operator: it extends each input
// row's path position (Aux) by one structural step — child or
// descendant — into the postings of the step's tag, keeping only rows
// whose position structurally matches. It is the iterator form of
// stepJoin, producing the identical row sequence, but instead of
// materializing both sides it joins bounded chunks of input rows
// against the fragment's pre-scanned candidate window (the step tag's
// postings below the fragment's members, in start order) with the
// incremental stack-tree. It holds no cursor.
//
// Chunk safety: input rows arrive member-major with non-decreasing
// member starts, and a row's leaf (Aux) starts at or after its member.
// A chunk closes, once it holds chunkRows rows, when the NEXT row's
// member starts past chunkMaxEnd, the maximum end of the chunk's
// leaves. At that point (a) every later leaf starts past every chunk
// leaf's end, so no leaf spans chunks and chunk-local leaf dedup equals
// global dedup; and (b) every candidate a later leaf can contain starts
// past chunkMaxEnd, so candidates pulled for this chunk (starts <=
// chunkMaxEnd) are discardable afterwards and candidates a chunk needs
// were never consumed by an earlier chunk.
type stepIter struct {
	child  Iterator
	counts *opCounts

	opened bool
	rdr    *rowReader
	// the fragment's candidate window (start order) and the next
	// candidate not yet pulled into a chunk
	cands     []storage.Posting
	candPos   int
	childDone bool
	// joined rows of the current chunk, served in order
	out    []Row
	outPos int
	// per-chunk scratch, reused across chunks
	chunk   []Row
	leaves  []storage.Posting
	candBuf []storage.Posting
	pairs   []stepPair
	first   []int32
	fill    []int32
	kids    []int32
	join    *sjoin.Stream
}

// stepPair is one (leaf, candidate) match of a chunk, as indexes into
// the chunk's leaves and candidate window.
type stepPair struct{ leaf, cand int32 }

// chunkRows is the row count from which stepIter closes a chunk at the
// next safe point: chunks span many members, so the per-chunk setup is
// amortized, while the chunk's scratch stays bounded.
const chunkRows = 16

func newStep(child Iterator, st PathStep, cands []storage.Posting, batchSize int, counts *opCounts) *stepIter {
	axis := sjoin.ParentChild
	if st.Descendant {
		axis = sjoin.AncestorDescendant
	}
	it := &stepIter{
		child:  child,
		counts: counts,
		rdr:    newRowReader(child, batchSize),
		cands:  cands,
	}
	it.join = sjoin.NewStream(axis, nil, func(a, d int) {
		it.pairs = append(it.pairs, stepPair{leaf: int32(a), cand: int32(d)})
	})
	return it
}

func (s *stepIter) Open() error {
	if s.opened {
		return nil
	}
	s.opened = true
	return s.child.Open()
}

func (s *stepIter) Next(b *Batch) error {
	b.Reset()
	for !b.full() {
		if s.outPos < len(s.out) {
			n := len(s.out) - s.outPos
			if room := cap(b.Rows) - len(b.Rows); n > room {
				n = room
			}
			b.Rows = append(b.Rows, s.out[s.outPos:s.outPos+n]...)
			s.outPos += n
			continue
		}
		if s.childDone {
			break
		}
		if err := s.buildChunk(); err != nil {
			return err
		}
	}
	s.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		s.counts.batch()
	}
	return nil
}

// buildChunk pulls the next closed chunk of input rows, joins it
// against its candidate window, and stages the expanded rows in s.out.
func (s *stepIter) buildChunk() error {
	s.chunk = s.chunk[:0]
	s.out = s.out[:0]
	s.outPos = 0

	// Gather rows until the close condition. The reader's span doubles
	// as the one-row lookahead: a row that opens the next chunk is
	// simply left unconsumed.
	var maxEnd uint32
gather:
	for {
		span, err := s.rdr.span()
		if err != nil {
			return err
		}
		if span == nil {
			s.childDone = true
			break
		}
		consumed := 0
		for consumed < len(span) {
			row := &span[consumed]
			if len(s.chunk) >= chunkRows && row.Member.Interval.Start > maxEnd {
				s.rdr.advance(consumed)
				break gather
			}
			s.chunk = append(s.chunk, *row)
			maxEnd = max(maxEnd, row.Aux.Interval.End)
			consumed++
		}
		s.rdr.advance(consumed)
	}
	s.counts.in(len(s.chunk))
	if len(s.chunk) == 0 {
		return nil
	}

	// Distinct leaves, sorted by start (one document, so start is the
	// full node order; equal starts name the same node). Member-major
	// input over disjoint members arrives sorted already.
	s.leaves = s.leaves[:0]
	for i := range s.chunk {
		s.leaves = append(s.leaves, s.chunk[i].Aux)
	}
	byStart := func(a, b storage.Posting) int { return cmp.Compare(a.Interval.Start, b.Interval.Start) }
	if !slices.IsSortedFunc(s.leaves, byStart) {
		slices.SortFunc(s.leaves, byStart)
	}
	s.leaves = slices.CompactFunc(s.leaves, func(a, b storage.Posting) bool { return a.Interval.Start == b.Interval.Start })

	// The chunk's candidate window: no copy, the candidates are
	// already in memory.
	lo := s.candPos
	for s.candPos < len(s.cands) && s.cands[s.candPos].Interval.Start <= maxEnd {
		s.candPos++
	}
	s.candBuf = s.cands[lo:s.candPos]

	// Incremental stack-tree over the merged (start) order; descendants
	// first on ties, per the Stream contract. It emits each leaf's
	// candidates in document order.
	s.pairs = s.pairs[:0]
	ai, di := 0, 0
	for di < len(s.candBuf) {
		if ai < len(s.leaves) && s.leaves[ai].Interval.Before(s.candBuf[di].Interval) {
			s.join.PushAncestor(s.leaves[ai].Interval, ai)
			ai++
			continue
		}
		s.join.PushDescendant(s.candBuf[di].Interval, di)
		di++
	}
	s.join.Flush()

	// Group the pairs by leaf with one counting pass: leaf a's
	// candidates are kids[first[a]:first[a+1]], in emission order.
	s.first = append(s.first[:0], make([]int32, len(s.leaves)+1)...)
	for _, p := range s.pairs {
		s.first[p.leaf+1]++
	}
	for a := 1; a < len(s.first); a++ {
		s.first[a] += s.first[a-1]
	}
	s.fill = append(s.fill[:0], s.first[:len(s.leaves)]...)
	s.kids = slices.Grow(s.kids[:0], len(s.pairs))[:len(s.pairs)]
	for _, p := range s.pairs {
		s.kids[s.fill[p.leaf]] = p.cand
		s.fill[p.leaf]++
	}

	// Expand row-major: input order × per-leaf candidate (document)
	// order — exactly stepJoin's output order.
	a := 0
	for i := range s.chunk {
		r := &s.chunk[i]
		if st := r.Aux.Interval.Start; s.leaves[a].Interval.Start != st {
			if a+1 < len(s.leaves) && s.leaves[a+1].Interval.Start == st {
				a++ // sorted input: the next leaf
			} else {
				a, _ = slices.BinarySearchFunc(s.leaves, r.Aux, byStart)
			}
		}
		for _, c := range s.kids[s.first[a]:s.first[a+1]] {
			s.out = append(s.out, Row{Member: r.Member, Aux: s.candBuf[c], HasAux: true})
		}
	}
	return nil
}

func (s *stepIter) Close() error {
	s.rdr.release()
	return s.child.Close()
}
