package exec

import "timber/internal/storage"

// sliceSource replays an already-scanned posting list as binding rows
// (Member == Aux: the path position starts at the member itself). The
// exchange scans the member postings once and each fragment feeds its
// share to the join-path, value-path and order-path pipelines through
// replays, so the member scan costs one index pass however many
// pipelines consume it.
type sliceSource struct {
	postings []storage.Posting
	pos      int
}

func newSliceSource(postings []storage.Posting) *sliceSource {
	return &sliceSource{postings: postings}
}

func (s *sliceSource) Open() error { return nil }

func (s *sliceSource) Next(b *Batch) error {
	b.Reset()
	for !b.full() && s.pos < len(s.postings) {
		p := s.postings[s.pos]
		s.pos++
		b.Rows = append(b.Rows, Row{Member: p, Aux: p, HasAux: true})
	}
	return nil
}

func (s *sliceSource) Close() error { return nil }
