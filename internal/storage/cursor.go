package storage

import (
	"bytes"
	"encoding/binary"
	"sort"

	"timber/internal/btree"
	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// TagCursor streams the postings of one tag (optionally restricted to
// one document) in document order, one at a time, instead of
// materializing the whole posting list the way TagPostings does. The
// streaming executor's scan operators are built on it: a pipeline pulls
// postings as its batches demand them and an early-terminating query
// never reads the tail of the list.
type TagCursor struct {
	it     *btree.Iterator
	prefix []byte
	err    error
	done   bool

	// pin is the snapshot a DB-level open took for this cursor; Close
	// releases it. Cursors opened on a caller-owned Snapshot leave it
	// nil — the caller's pin outlives the cursor.
	pin *Snapshot

	// The cursor decodes a whole posting block per index cell and
	// serves it from buf.
	buf    []Posting
	bufPos int

	// decoded counts postings decoded from index cells (whole blocks
	// count in full); skippedBlocks counts blocks Seek jumped
	// over without decoding. Together they quantify how much index the
	// cursor actually touched — the holistic matcher's cost unit.
	decoded       int
	skippedBlocks int
}

// OpenTagCursor positions a cursor at the first posting of tag across
// all documents.
func (sn *Snapshot) OpenTagCursor(tag string) *TagCursor {
	prefix := tagPrefix(tag)
	return &TagCursor{it: sn.tagIdx.Seek(prefix), prefix: prefix}
}

// OpenTagCursor pins a snapshot for the cursor's lifetime; the pin is
// released by the cursor's Close.
//
// Deprecated: only the benchmark harness calls it; ROADMAP item 2(a)
// moves the harness onto a Snapshot and then deletes this method.
func (db *DB) OpenTagCursor(tag string) *TagCursor {
	sn := db.Snapshot()
	c := sn.OpenTagCursor(tag)
	c.pin = sn
	return c
}

// OpenTagDocCursor positions a cursor at the first posting of tag
// within one document. The exchange operator scans each path tag of
// each document with one: the key layout (tag, 0x00, doc, start) makes
// a document a contiguous key range, so restricting the scan is one
// longer prefix, not a filter.
func (sn *Snapshot) OpenTagDocCursor(tag string, doc xmltree.DocID) *TagCursor {
	prefix := tagPrefix(tag)
	prefix = append(prefix, be32(uint32(doc))...)
	return &TagCursor{it: sn.tagIdx.Seek(prefix), prefix: prefix}
}

// Next returns the next posting, or ok=false at the end of the range
// (or on error — check Err).
func (c *TagCursor) Next() (Posting, bool) {
	if c.bufPos < len(c.buf) {
		p := c.buf[c.bufPos]
		c.bufPos++
		return p, true
	}
	if c.done || c.err != nil {
		return Posting{}, false
	}
	if !c.it.Valid() {
		c.done = true
		c.err = c.it.Err()
		return Posting{}, false
	}
	k := c.it.Key()
	if !bytes.HasPrefix(k, c.prefix) {
		c.done = true
		return Posting{}, false
	}
	// Keys end in the fixed-width (doc, start) pair regardless of how
	// long the prefix was (tags cannot contain NUL). One cell is a
	// whole block; blocks never span documents, so a per-document
	// prefix match covers every posting inside.
	buf, err := appendBlockPostings(c.buf[:0], k[len(k)-8:], c.it.Value())
	if err != nil || len(buf) == 0 {
		c.err = err
		c.done = true
		return Posting{}, false
	}
	c.decoded += len(buf)
	c.buf = buf
	c.bufPos = 1
	c.it.Next()
	return buf[0], true
}

// Seek fast-forwards the cursor so the next Next returns the first
// remaining posting at or after (doc, start) in (doc, start) order; it
// never moves backward. Posting blocks are bounded by their
// header key and never span documents, so whole blocks strictly below
// the target are skipped without decoding — one-cell lookahead inside
// the leaf decides whether the current block can straddle the target.
// This is the non-overlap skip the holistic twig matcher relies on.
func (c *TagCursor) Seek(doc xmltree.DocID, start uint32) {
	var suffix [8]byte
	binary.BigEndian.PutUint32(suffix[0:], uint32(doc))
	binary.BigEndian.PutUint32(suffix[4:], start)
	// Serve from the decoded block first: if the target lies at or
	// before its last posting the answer is a buffer reposition.
	if c.bufPos < len(c.buf) {
		i := c.bufPos + postingSearch(c.buf[c.bufPos:], doc, start)
		if i < len(c.buf) {
			c.bufPos = i
			return
		}
		c.buf = c.buf[:0]
		c.bufPos = 0
	}
	if c.done || c.err != nil {
		return
	}
	for c.it.Valid() {
		k := c.it.Key()
		if !bytes.HasPrefix(k, c.prefix) {
			c.done = true
			return
		}
		if bytes.Compare(k[len(k)-8:], suffix[:]) >= 0 {
			return // block starts at/after the target; Next serves it
		}
		// Block starts before the target. It cannot contain the target
		// if it belongs to an earlier document (blocks never span docs)
		// or if the next block starts at or before the target.
		if xmltree.DocID(binary.BigEndian.Uint32(k[len(k)-8:])) < doc {
			c.skippedBlocks++
			c.it.Next()
			continue
		}
		if nk, ok := c.it.PeekNextKey(); ok && bytes.HasPrefix(nk, c.prefix) &&
			bytes.Compare(nk[len(nk)-8:], suffix[:]) <= 0 {
			c.skippedBlocks++
			c.it.Next()
			continue
		}
		// The block may straddle the target: decode and search it.
		buf, err := appendBlockPostings(c.buf[:0], k[len(k)-8:], c.it.Value())
		if err != nil {
			c.err = err
			c.done = true
			return
		}
		c.decoded += len(buf)
		c.it.Next()
		if i := postingSearch(buf, doc, start); i < len(buf) {
			c.buf = buf
			c.bufPos = i
			return
		}
		c.buf = buf[:0]
	}
	c.done = true
	c.err = c.it.Err()
}

// postingSearch returns the index of the first posting in ps at or
// after (doc, start); ps is sorted by (doc, start).
func postingSearch(ps []Posting, doc xmltree.DocID, start uint32) int {
	return sort.Search(len(ps), func(i int) bool {
		iv := ps[i].Interval
		return iv.Doc > doc || (iv.Doc == doc && iv.Start >= start)
	})
}

// PostingsDecoded reports how many postings the cursor has decoded from
// the index, including postings decoded while seeking and block
// remainders the caller never consumed.
func (c *TagCursor) PostingsDecoded() int { return c.decoded }

// BlocksSkipped reports how many posting blocks Seek jumped
// over without decoding.
func (c *TagCursor) BlocksSkipped() int { return c.skippedBlocks }

// Err reports the first error the cursor hit, if any.
func (c *TagCursor) Err() error { return c.err }

// Close releases the cursor's pinned index page (and its snapshot pin,
// if the cursor owns one) and returns its first error — a scan fault
// or a pin-release fault. Idempotent.
func (c *TagCursor) Close() error {
	cerr := c.it.Close()
	c.done = true
	if c.pin != nil {
		c.pin.Close()
		c.pin = nil
	}
	if c.err == nil {
		c.err = cerr
	}
	return c.err
}

// ContentsBatch populates out[i] with the stored content of ps[i] for a
// whole batch of postings in one call — the late-materialization access
// path of the streaming executor. Consecutive postings on the same heap
// page share a single buffer-pool fetch (the page stays pinned across
// them), so a batch of output rows clustered in document order costs
// far fewer fetches than len(ps) individual Content calls. out must
// have len(ps) slots.
func (sn *Snapshot) ContentsBatch(ps []Posting, out []string) error {
	st := sn.db.st
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].RID.Page == ps[i].RID.Page {
			j++
		}
		p, err := st.Fetch(ps[i].RID.Page)
		if err != nil {
			return err
		}
		sp := pagestore.ViewSlotted(p)
		for k := i; k < j; k++ {
			b, rerr := sp.Read(ps[k].RID.Slot)
			if rerr != nil {
				st.Unpin(p, false)
				return rerr
			}
			content, derr := recordContentCompact(b)
			if derr != nil {
				st.Unpin(p, false)
				return derr
			}
			out[k] = content
		}
		st.Unpin(p, false)
		i = j
	}
	return nil
}

// ContentsBatch is the pin-per-call form of Snapshot.ContentsBatch.
//
// Deprecated: only the benchmark harness calls it; ROADMAP item 2(a)
// moves the harness onto a Snapshot and then deletes this method.
func (db *DB) ContentsBatch(ps []Posting, out []string) error {
	sn := db.Snapshot()
	defer sn.Close()
	return sn.ContentsBatch(ps, out)
}
