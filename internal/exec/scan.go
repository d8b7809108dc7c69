package exec

import (
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// scanIter is the streaming leaf of a fragment's pipeline: it pulls
// one document's postings for a tag from a TagCursor and emits them as
// binding rows with Member == Aux (the path position starts at the
// member itself). An early-terminating consumer never reads the rest
// of the posting list.
type scanIter struct {
	db     storage.Reader
	tag    string
	doc    xmltree.DocID
	counts *opCounts

	cur    *storage.TagCursor
	opened bool
}

func newScan(db storage.Reader, tag string, doc xmltree.DocID, counts *opCounts) *scanIter {
	return &scanIter{db: db, tag: tag, doc: doc, counts: counts}
}

func (s *scanIter) Open() error {
	if s.opened {
		return nil
	}
	s.opened = true
	s.cur = s.db.OpenTagDocCursor(s.tag, s.doc)
	return nil
}

func (s *scanIter) Next(b *Batch) error {
	b.Reset()
	for !b.full() {
		p, ok := s.cur.Next()
		if !ok {
			if err := s.cur.Err(); err != nil {
				return err
			}
			break
		}
		b.Rows = append(b.Rows, Row{Member: p, Aux: p, HasAux: true})
	}
	s.counts.out(len(b.Rows))
	if len(b.Rows) > 0 {
		s.counts.batch()
	}
	return nil
}

func (s *scanIter) Close() error {
	if s.cur == nil {
		return nil
	}
	return s.cur.Close()
}

// sliceSource replays an already-scanned posting list as binding rows.
// A fragment scans its member postings once and feeds them to the
// join-path, value-path and order-path pipelines through replays, so
// the member scan costs one index pass however many pipelines consume
// it.
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
