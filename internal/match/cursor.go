package match

import (
	"sync/atomic"

	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// Cursor streams a pattern's witnesses one binding at a time instead
// of returning the full slice — the streaming face of the binary
// cascade that Open returns. Candidate postings (identifiers
// only) are scanned up front, but the structural joins run one
// document at a time, on demand: peak memory is one document's witness
// set rather than the corpus's, and an early-terminating consumer
// never joins the remaining documents. The binding sequence is
// identical to matchDBObs's — per-document witnesses sort
// lexicographically by pre-order node identifiers, and documents
// ascend, which is exactly the order the global sort produces.
type Cursor struct {
	order  []*pattern.Node
	colOf  map[string]int
	jorder []int
	cands  [][]storage.Posting
	docs   []xmltree.DocID
	stats  *DBStats

	di     int
	out    witnesses // current document's rows
	interm atomic.Int64
}

// openCursor scans the pattern's candidate postings and positions the
// cursor before the first witness. Every database read happens here
// (candidate scans and predicate fetches), so the cursor holds nothing
// of db once it returns.
func openCursor(db *storage.Snapshot, pt *pattern.Tree) (*Cursor, error) {
	order := preorder(pt.Root)
	c := &Cursor{
		order: order,
		colOf: make(map[string]int, len(order)),
		cands: make([][]storage.Posting, len(order)),
		stats: &DBStats{Matcher: MatcherBinary.String()},
		out:   witnesses{labels: pt.Labels(), rows: rowSet{width: len(order)}},
	}
	for i, pn := range order {
		c.colOf[pn.Label] = i
	}
	for i, pn := range order {
		cs, err := candidates(db, pn, c.stats)
		if err != nil {
			return nil, err
		}
		if len(cs) == 0 {
			// Some node has no match at all: no documents, an exhausted
			// cursor.
			return c, nil
		}
		c.cands[i] = cs
	}
	c.jorder = greedyJoinOrder(order, c.colOf, c.cands)
	c.stats.JoinOrder = append(c.stats.JoinOrder, order[0].Label)
	for _, i := range c.jorder {
		c.stats.JoinOrder = append(c.stats.JoinOrder, order[i].Label)
	}
	c.docs = candidateDocs(c.cands[0])
	return c, nil
}

// Next returns the next witness binding, or ok=false when the stream
// is exhausted or the cursor closed. Joining happens lazily, one
// document per refill; the binding is valid until the following Next.
func (c *Cursor) Next() (DBBinding, bool) {
	for {
		if b, ok := c.out.next(); ok {
			c.stats.Witnesses++
			return b, true
		}
		if c.di >= len(c.docs) {
			return nil, false
		}
		doc := c.docs[c.di]
		c.di++
		c.fillDoc(doc)
	}
}

// fillDoc joins one document's candidate segments and stages its rows.
func (c *Cursor) fillDoc(doc xmltree.DocID) {
	c.out.drop()
	docCands := make([][]storage.Posting, len(c.order))
	for i := range c.cands {
		docCands[i] = docSegment(c.cands[i], doc)
		if len(docCands[i]) == 0 {
			return
		}
	}
	c.out.stage(matchRows(c.order, c.colOf, c.jorder, docCands, nil, &c.interm))
}

// Stats returns the cursor's access counters; Witnesses counts the
// bindings returned so far.
func (c *Cursor) Stats() *DBStats {
	c.stats.IntermediateBindings = int(c.interm.Load())
	return c.stats
}

// Err reports the first error the cursor hit. openCursor performs
// every database read up front, so a successfully opened cursor cannot
// fail later; Err exists to satisfy the Matcher interface.
func (c *Cursor) Err() error { return nil }

// Close drops the candidate lists and the staged rows; Next reports
// ok=false from then on. The cursor holds no pin, so nothing else is
// held. Idempotent.
func (c *Cursor) Close() error {
	c.cands, c.docs = nil, nil
	c.out.drop()
	return nil
}
