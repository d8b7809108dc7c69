package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"timber/internal/btree"
	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// Posting blocks: the compact (format v2) layout of the tag and value
// indices. Instead of one B+tree cell per posting — an 8-byte key
// suffix plus a fixed 12-byte value — key-adjacent postings that share
// everything but their start number (same tag/content prefix, same
// document) are packed into one cell, delta-encoded against their
// predecessor. Postings come out of the tree already sorted by
// (doc, start), so the deltas are small and varints shrink them to a
// byte or two each.
//
// Block cell layout:
//
//	key:   the full per-posting key of the block's FIRST posting
//	       (…prefix…, doc be32, start be32) — prefix scans and seeks
//	       work unchanged, and doc/start₀ are recovered from the key's
//	       8-byte suffix instead of being stored again
//	value: count uvarint, then per posting:
//	       posting 0:  extent uvarint, level uvarint,
//	                   page uvarint, slot uvarint
//	       posting i>0: startDelta uvarint (start_i − start_{i−1}),
//	                   extent uvarint, level uvarint,
//	                   pageDelta varint (signed), slot uvarint
//
// where extent = end − start. Blocks never span documents or distinct
// prefixes: the per-document cursor prefix (tag, 0x00, doc) relies on
// every posting in a matching block belonging to that document.
const (
	// blockMaxPostings caps postings per block so one cell decode stays
	// a bounded unit of work.
	blockMaxPostings = 128
	// blockCountLen is the reserved encoding size of the count varint
	// (blockMaxPostings fits in two varint bytes).
	blockCountLen = 2
	// blockMaxPostingEnc is the worst-case encoded size of one non-first
	// posting: startDelta(5) + extent(5) + level(3) + pageDelta(5) +
	// slot(3).
	blockMaxPostingEnc = 21
)

var errCorruptBlock = errors.New("storage: corrupt posting block")

// appendFirstPosting encodes a block's leading posting (doc and start
// live in the block key).
func appendFirstPosting(dst []byte, p Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Interval.End-p.Interval.Start))
	dst = binary.AppendUvarint(dst, uint64(p.Interval.Level))
	dst = binary.AppendUvarint(dst, uint64(p.RID.Page))
	dst = binary.AppendUvarint(dst, uint64(p.RID.Slot))
	return dst
}

// appendNextPosting encodes a follow-on posting as deltas against prev.
// prev and p share a document and prev.Start <= p.Start.
func appendNextPosting(dst []byte, prev, p Posting) []byte {
	dst = binary.AppendUvarint(dst, uint64(p.Interval.Start-prev.Interval.Start))
	dst = binary.AppendUvarint(dst, uint64(p.Interval.End-p.Interval.Start))
	dst = binary.AppendUvarint(dst, uint64(p.Interval.Level))
	dst = binary.AppendVarint(dst, int64(p.RID.Page)-int64(prev.RID.Page))
	dst = binary.AppendUvarint(dst, uint64(p.RID.Slot))
	return dst
}

// appendBlockPostings decodes a block into dst and returns the extended
// slice. keySuffix is the block key's trailing 8 bytes (doc, start₀,
// big endian). The decoder is total: any malformed input returns
// errCorruptBlock, and the whole value must be consumed exactly.
func appendBlockPostings(dst []Posting, keySuffix, value []byte) ([]Posting, error) {
	if len(keySuffix) != 8 {
		return dst, fmt.Errorf("%w: key suffix %d bytes", errCorruptBlock, len(keySuffix))
	}
	doc := xmltree.DocID(binary.BigEndian.Uint32(keySuffix[0:]))
	start := uint64(binary.BigEndian.Uint32(keySuffix[4:]))
	off := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(value[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	count, ok := next()
	if !ok || count < 1 || count > blockMaxPostings {
		return dst, errCorruptBlock
	}
	var prevPage int64
	for i := uint64(0); i < count; i++ {
		if i > 0 {
			delta, ok := next()
			if !ok {
				return dst, errCorruptBlock
			}
			start += delta
		}
		extent, ok1 := next()
		level, ok2 := next()
		if !ok1 || !ok2 {
			return dst, errCorruptBlock
		}
		var page int64
		if i == 0 {
			p, ok := next()
			if !ok {
				return dst, errCorruptBlock
			}
			page = int64(p)
		} else {
			d, n := binary.Varint(value[off:])
			if n <= 0 {
				return dst, errCorruptBlock
			}
			off += n
			page = prevPage + d
		}
		slot, ok := next()
		if !ok {
			return dst, errCorruptBlock
		}
		if start > 0xffffffff || start+extent > 0xffffffff ||
			level > 0xffff || slot > 0xffff ||
			page < 0 || page > 0xffffffff {
			return dst, errCorruptBlock
		}
		dst = append(dst, Posting{
			Interval: xmltree.Interval{
				Doc:   doc,
				Start: uint32(start),
				End:   uint32(start + extent),
				Level: uint16(level),
			},
			RID: pagestore.RID{
				Page: pagestore.PageID(page),
				Slot: pagestore.Slot(slot),
			},
		})
		prevPage = page
	}
	if off != len(value) {
		return dst, fmt.Errorf("%w: %d trailing bytes", errCorruptBlock, len(value)-off)
	}
	return dst, nil
}

// blockKVs converts one document's sorted per-posting pairs (one
// 12-byte postingValue each) into block pairs, greedily packing
// key-adjacent postings up to blockMaxPostings or the tree's cell
// budget. The input stays untouched; every write path feeds the result
// to BulkLoad (the first document) or InsertSorted (every later one).
func blockKVs(kvs []btree.KV, maxCell int) ([]btree.KV, error) {
	out := make([]btree.KV, 0, len(kvs)/8+1)
	i := 0
	for i < len(kvs) {
		blockKey := kvs[i].Key
		if len(blockKey) < 8 {
			return nil, fmt.Errorf("storage: block build: short key %q", blockKey)
		}
		prev, err := decodePosting(blockKey[len(blockKey)-8:], kvs[i].Value)
		if err != nil {
			return nil, err
		}
		body := appendFirstPosting(make([]byte, 0, 64), prev)
		n := 1
		j := i + 1
		for j < len(kvs) && n < blockMaxPostings {
			k := kvs[j].Key
			if len(k) != len(blockKey) || !bytes.Equal(k[:len(k)-4], blockKey[:len(blockKey)-4]) {
				break // different prefix or document
			}
			if len(blockKey)+blockCountLen+len(body)+blockMaxPostingEnc > maxCell {
				break // cell budget
			}
			p, err := decodePosting(k[len(k)-8:], kvs[j].Value)
			if err != nil {
				return nil, err
			}
			body = appendNextPosting(body, prev, p)
			prev = p
			n++
			j++
		}
		val := binary.AppendUvarint(make([]byte, 0, blockCountLen+len(body)), uint64(n))
		val = append(val, body...)
		out = append(out, btree.KV{Key: blockKey, Value: val})
		i = j
	}
	return out, nil
}
