package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"timber/internal/btree"
	"timber/internal/xmltree"
)

// PostingStream is the one read path of the tag and value indices: it
// walks the posting blocks under one key prefix in key order and hands
// them out a whole block at a time. It opens four ways — over a tag
// (TagStream), a (tag, document) (TagDocStream), a (tag, value)
// (ValueStream) or a tag's whole value range (ValueRangeStream). The
// first three yield postings in (doc, start) order; the range form
// yields them grouped by content in byte order, and Value reports each
// block's content. A stream belongs to one goroutine at a time.
type PostingStream struct {
	it     *btree.Iterator // nil for a stream over nothing
	prefix []byte
	err    error
	done   bool

	// ranged marks the value-range form: keys carry the content
	// between the prefix and the (doc, start) suffix, and value holds
	// the content of the block NextBlock last returned.
	ranged bool
	value  []byte

	// buf is the decode buffer NextBlock and Seek reuse; held is the
	// part of a block Seek decoded that NextBlock has yet to return.
	buf  []Posting
	held []Posting

	// decoded counts postings decoded from index cells (whole blocks
	// count in full, including blocks Seek decoded to search). Blocks
	// Seek skips are never decoded; the count is the holistic
	// matcher's cost unit.
	decoded int
}

// TagStream opens a stream over every posting of tag.
func (sn *Snapshot) TagStream(tag string) *PostingStream {
	return newStream(sn.tagIdx, tagPrefix(tag))
}

// TagDocStream opens a stream over the postings of tag within one
// document. The key layout (tag, 0x00, doc, start) makes a document a
// contiguous key range and blocks never span documents, so the
// restriction is one longer prefix, not a filter.
func (sn *Snapshot) TagDocStream(tag string, doc xmltree.DocID) *PostingStream {
	return newStream(sn.tagIdx, append(tagPrefix(tag), be32(uint32(doc))...))
}

// ValueStream opens a stream over the postings of tag whose content
// equals value, from the value index. ok is false when the index
// cannot answer that: the database has no value index, or value is
// content the index does not hold (empty, longer than
// maxIndexedContent) or cannot tell apart by prefix (containing NUL,
// the key separator). The caller then filters a TagStream.
func (sn *Snapshot) ValueStream(tag, value string) (s *PostingStream, ok bool) {
	if sn.valIdx == nil || value == "" || len(value) > maxIndexedContent || strings.IndexByte(value, 0) >= 0 {
		return nil, false
	}
	return newStream(sn.valIdx, valuePrefix(tag, value)), true
}

// ValueRangeStream opens a stream over the value index's prefix tag\0:
// every indexed content of tag's elements in byte order
// (strings.Compare), each content's postings in (doc, start) order.
// Value reports the content of each block. The range covers only what
// the value index holds: empty content, content longer than
// maxIndexedContent and content containing NUL (which would sort out of
// byte order) are absent. Without a value index the stream is empty.
func (sn *Snapshot) ValueRangeStream(tag string) *PostingStream {
	if sn.valIdx == nil {
		return &PostingStream{done: true}
	}
	s := newStream(sn.valIdx, tagPrefix(tag))
	s.ranged = true
	return s
}

func newStream(t *btree.Tree, prefix []byte) *PostingStream {
	return &PostingStream{it: t.Seek(prefix), prefix: prefix}
}

// NextBlock returns the next block of postings, or ok=false at the end
// of the stream (or on error — check Err). A block is never empty. The
// slice is reused: it is valid until the next NextBlock, Seek or Close.
func (s *PostingStream) NextBlock() ([]Posting, bool) {
	if len(s.held) > 0 {
		b := s.held
		s.held = nil
		return b, true
	}
	var ok bool
	s.buf, ok = s.appendBlock(s.buf[:0])
	return s.buf, ok
}

// appendBlock decodes the next block of the stream onto dst.
func (s *PostingStream) appendBlock(dst []Posting) ([]Posting, bool) {
	for !s.done && s.err == nil {
		if !s.it.Valid() {
			s.done = true
			s.err = s.it.Err()
			break
		}
		k := s.it.Key()
		if !bytes.HasPrefix(k, s.prefix) {
			s.done = true
			break
		}
		if s.ranged {
			// tag, 0x00, content, 0x00, doc be32, start be32
			if len(k) < len(s.prefix)+9 || k[len(k)-9] != 0 {
				s.err = fmt.Errorf("%w: value-index key of %d bytes", errCorruptBlock, len(k))
				break
			}
			content := k[len(s.prefix) : len(k)-9]
			if bytes.IndexByte(content, 0) >= 0 {
				s.it.Next()
				continue
			}
			s.value = append(s.value[:0], content...)
		}
		// Keys end in the fixed-width (doc, start) pair however long
		// the prefix is (tags cannot contain NUL). One cell is a whole
		// block, and blocks never span documents, so a per-document
		// prefix match covers every posting inside.
		n := len(dst)
		out, err := appendBlockPostings(dst, k[len(k)-8:], s.it.Value())
		if err != nil {
			s.err = err
			break
		}
		s.decoded += len(out) - n
		s.it.Next()
		return out, true
	}
	return dst, false
}

// Seek fast-forwards the stream so the next NextBlock starts at the
// first remaining posting at or after (doc, start) in (doc, start)
// order; it never moves backward, and postings NextBlock already
// returned are the caller's to search. Blocks never span documents
// and are bounded by their header keys, so whole blocks strictly below
// the target are skipped without decoding: one-cell look-ahead inside
// the leaf decides whether the current block can straddle the target.
// This is the non-overlap skip the holistic twig matcher relies on.
// Seek is meaningless on the value-range form, whose blocks are not in
// (doc, start) order.
func (s *PostingStream) Seek(doc xmltree.DocID, start uint32) {
	if len(s.held) > 0 {
		if i := postingSearch(s.held, doc, start); i < len(s.held) {
			s.held = s.held[i:]
			return
		}
		s.held = nil
	}
	var target [8]byte
	binary.BigEndian.PutUint32(target[0:], uint32(doc))
	binary.BigEndian.PutUint32(target[4:], start)
	for !s.done && s.err == nil {
		if !s.it.Valid() {
			s.done = true
			s.err = s.it.Err()
			return
		}
		k := s.it.Key()
		if !bytes.HasPrefix(k, s.prefix) {
			s.done = true
			return
		}
		if bytes.Compare(k[len(k)-8:], target[:]) >= 0 {
			return // block starts at/after the target; NextBlock serves it
		}
		// The block starts before the target. It cannot contain the
		// target if it belongs to an earlier document (blocks never span
		// documents) or if the next block starts at or before the target.
		if xmltree.DocID(binary.BigEndian.Uint32(k[len(k)-8:])) < doc {
			s.it.Next()
			continue
		}
		if nk, ok := s.it.PeekNextKey(); ok && bytes.HasPrefix(nk, s.prefix) &&
			bytes.Compare(nk[len(nk)-8:], target[:]) <= 0 {
			s.it.Next()
			continue
		}
		// The block may straddle the target: decode and search it.
		buf, err := appendBlockPostings(s.buf[:0], k[len(k)-8:], s.it.Value())
		if err != nil {
			s.err = err
			return
		}
		s.buf = buf
		s.decoded += len(buf)
		s.it.Next()
		if i := postingSearch(buf, doc, start); i < len(buf) {
			s.held = buf[i:]
			return
		}
	}
}

// postingSearch returns the index of the first posting in ps at or
// after (doc, start); ps is sorted by (doc, start).
func postingSearch(ps []Posting, doc xmltree.DocID, start uint32) int {
	return sort.Search(len(ps), func(i int) bool {
		iv := ps[i].Interval
		return iv.Doc > doc || (iv.Doc == doc && iv.Start >= start)
	})
}

// Value returns the content of the block NextBlock last returned, on a
// stream ValueRangeStream opened (nil on the other forms). The slice is
// reused: it is valid until the next NextBlock or Close.
func (s *PostingStream) Value() []byte { return s.value }

// Decoded reports how many postings the stream has decoded from the
// index, including blocks Seek decoded to search and block remainders
// the caller never consumed.
func (s *PostingStream) Decoded() int { return s.decoded }

// Err reports the first error the stream hit, if any.
func (s *PostingStream) Err() error { return s.err }

// Close releases the stream's pinned index page and returns its first
// error — a scan fault or a pin-release fault. Idempotent.
func (s *PostingStream) Close() error {
	s.done = true
	s.held = nil
	if s.it != nil {
		if cerr := s.it.Close(); s.err == nil {
			s.err = cerr
		}
	}
	return s.err
}

// Drain reads the rest of s into one slice and closes it.
func Drain(s *PostingStream) ([]Posting, error) {
	out := append([]Posting(nil), s.held...)
	s.held = nil
	for ok := true; ok; {
		out, ok = s.appendBlock(out)
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// TagCursor reads the postings of one tag one at a time; DB.OpenTagCursor
// returns it.
//
// Deprecated: only the benchmark harness uses it; ROADMAP item 2(a)
// moves the harness onto a Snapshot's PostingStream and then deletes
// it.
type TagCursor struct {
	s   *PostingStream
	pin *Snapshot
	blk []Posting
}

// OpenTagCursor pins a snapshot and opens a cursor over every posting
// of tag; the cursor's Close releases the pin.
//
// Deprecated: only the benchmark harness calls it; ROADMAP item 2(a)
// moves the harness onto a Snapshot and then deletes this method.
func (db *DB) OpenTagCursor(tag string) *TagCursor {
	sn := db.Snapshot()
	return &TagCursor{s: sn.TagStream(tag), pin: sn}
}

// Next returns the next posting, or ok=false at the end of the tag's
// postings (or on error — Close reports it).
func (c *TagCursor) Next() (Posting, bool) {
	if len(c.blk) == 0 {
		var ok bool
		if c.blk, ok = c.s.NextBlock(); !ok {
			return Posting{}, false
		}
	}
	p := c.blk[0]
	c.blk = c.blk[1:]
	return p, true
}

// Close closes the stream and releases the snapshot pin, returning the
// stream's first error. Idempotent.
func (c *TagCursor) Close() error {
	c.blk = nil
	err := c.s.Close()
	c.pin.Close()
	return err
}
