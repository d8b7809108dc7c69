// Package storage implements the TIMBER-style storage layer of the
// paper's Figure 12 on top of the page store: a Data Manager that keeps
// one record per XML node in a heap file, an Index Manager that
// maintains a node locator, a tag-name index and a (tag, content) value
// index as B+trees, and a Metadata Manager that persists the catalog.
//
// The experiments in Sec. 6 rely on two properties this layer provides:
//
//   - Pattern-tree node bindings can be computed from indices alone,
//     without touching node records: tag-index postings carry the full
//     interval (start, end, level) of each node.
//   - Value look-ups ("populating" content during grouping or output)
//     cost buffer-pool page fetches, so plans that defer or avoid them
//     are measurably cheaper.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// NodeRecord is the stored form of one XML node.
type NodeRecord struct {
	// Interval is the node's position: document, start/end, level.
	Interval xmltree.Interval
	// ParentStart is the start number of the parent node, or 0 for a
	// document root.
	ParentStart uint32
	// Tag is the element name.
	Tag string
	// Content is the element's direct text content.
	Content string
	// Attrs are the element attributes in document order.
	Attrs []xmltree.Attr
}

// ID returns the record's node identifier.
func (r *NodeRecord) ID() xmltree.NodeID { return r.Interval.ID() }

var errCorruptRecord = errors.New("storage: corrupt node record")

// appendNodeRecord appends the stored form of one numbered tree node
// to buf and returns the extended slice; writers reuse one buffer for
// every node. The parent link is the parent's start number, 0 for a
// root. Every integer is a varint and the end number is stored as an
// extent (end − start), so small nodes — the vast majority at DBLP
// scale, where most elements hold a short string — carry a 5-8 byte
// header.
//
//	doc, start, extent, level, parentStart,
//	tagLen, tag, contentLen, content,
//	nattrs, { nameLen, name, valLen, value }*   (all lengths uvarint)
func appendNodeRecord(buf []byte, n *xmltree.Node) []byte {
	var parentStart uint32
	if n.Parent != nil {
		parentStart = n.Parent.Interval.Start
	}
	iv := n.Interval
	buf = binary.AppendUvarint(buf, uint64(iv.Doc))
	buf = binary.AppendUvarint(buf, uint64(iv.Start))
	buf = binary.AppendUvarint(buf, uint64(iv.End-iv.Start))
	buf = binary.AppendUvarint(buf, uint64(iv.Level))
	buf = binary.AppendUvarint(buf, uint64(parentStart))
	buf = binary.AppendUvarint(buf, uint64(len(n.Tag)))
	buf = append(buf, n.Tag...)
	buf = binary.AppendUvarint(buf, uint64(len(n.Content)))
	buf = append(buf, n.Content...)
	buf = binary.AppendUvarint(buf, uint64(len(n.Attrs)))
	for _, a := range n.Attrs {
		buf = binary.AppendUvarint(buf, uint64(len(a.Name)))
		buf = append(buf, a.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(a.Value)))
		buf = append(buf, a.Value...)
	}
	return buf
}

// decodeRecordNode parses a stored record into n's tag, content,
// attributes and interval, and returns the parent's start number; n's
// Children and Parent are left alone. Total on arbitrary input: every
// varint and length is bounds-checked against the remaining bytes
// before use. tags, when non-nil, interns tag names, so a reader that
// decodes many records allocates each distinct tag once.
func decodeRecordNode(b []byte, n *xmltree.Node, tags map[string]string) (uint32, error) {
	off := 0
	u := func() (uint64, bool) {
		v, k := binary.Uvarint(b[off:])
		if k <= 0 {
			return 0, false
		}
		off += k
		return v, true
	}
	field := func() ([]byte, bool) {
		l, ok := u()
		if !ok || l > uint64(len(b)-off) {
			return nil, false
		}
		f := b[off : off+int(l)]
		off += int(l)
		return f, true
	}
	doc, ok1 := u()
	start, ok2 := u()
	extent, ok3 := u()
	level, ok4 := u()
	parent, ok5 := u()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 ||
		doc > 0xffffffff || start > 0xffffffff || start+extent > 0xffffffff ||
		level > 0xffff || parent > 0xffffffff {
		return 0, errCorruptRecord
	}
	tag, ok := field()
	if !ok {
		return 0, errCorruptRecord
	}
	content, ok := field()
	if !ok {
		return 0, errCorruptRecord
	}
	nattrs, ok := u()
	if !ok || nattrs > uint64(len(b)-off) { // each attr costs ≥ 2 bytes
		return 0, errCorruptRecord
	}
	var attrs []xmltree.Attr
	for i := uint64(0); i < nattrs; i++ {
		name, ok := field()
		if !ok {
			return 0, errCorruptRecord
		}
		val, ok := field()
		if !ok {
			return 0, errCorruptRecord
		}
		attrs = append(attrs, xmltree.Attr{Name: string(name), Value: string(val)})
	}
	n.Interval = xmltree.Interval{
		Doc:   xmltree.DocID(doc),
		Start: uint32(start),
		End:   uint32(start + extent),
		Level: uint16(level),
	}
	if t, ok := tags[string(tag)]; ok {
		n.Tag = t
	} else {
		n.Tag = string(tag)
		if tags != nil {
			tags[n.Tag] = n.Tag
		}
	}
	n.Content = string(content)
	n.Attrs = attrs
	return uint32(parent), nil
}

// decodeRecordCompact parses a stored record into a NodeRecord — the
// node decoder's result in record form.
func decodeRecordCompact(b []byte) (*NodeRecord, error) {
	var n xmltree.Node
	parent, err := decodeRecordNode(b, &n, nil)
	if err != nil {
		return nil, err
	}
	return &NodeRecord{
		Interval:    n.Interval,
		ParentStart: parent,
		Tag:         n.Tag,
		Content:     n.Content,
		Attrs:       n.Attrs,
	}, nil
}

// recordContentCompact extracts just the content string from a
// format-v2 record, skipping the header and tag without materializing
// them — the late-materialization fast path ContentsBatch runs per row.
func recordContentCompact(b []byte) (string, error) {
	off := 0
	skip := func() bool {
		_, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return false
		}
		off += n
		return true
	}
	for i := 0; i < 5; i++ { // doc, start, extent, level, parentStart
		if !skip() {
			return "", errCorruptRecord
		}
	}
	tagLen, n := binary.Uvarint(b[off:])
	if n <= 0 || tagLen > uint64(len(b)-off-n) {
		return "", errCorruptRecord
	}
	off += n + int(tagLen)
	contentLen, n := binary.Uvarint(b[off:])
	if n <= 0 || contentLen > uint64(len(b)-off-n) {
		return "", errCorruptRecord
	}
	off += n
	return string(b[off : off+int(contentLen)]), nil
}

// Posting is one index entry for a node: its interval plus the record's
// physical location. Postings are what pattern matching operates on —
// bindings "in terms of node identifiers, obtained from the index look
// up" (Sec. 5.2) — and the RID is what a later value population uses to
// reach the record without another locator probe.
type Posting struct {
	Interval xmltree.Interval
	RID      pagestore.RID
}

// ID returns the posting's node identifier.
func (p Posting) ID() xmltree.NodeID { return p.Interval.ID() }

// Index key layouts. All multi-byte integers in keys are big endian so
// that lexicographic byte order equals numeric order; postings therefore
// come out of prefix scans already sorted by (doc, start), which is
// exactly the input order the structural join algorithms need. Tags and
// contents cannot contain NUL in well-formed XML, so 0x00 separates
// variable-length components.

func be32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// locatorKey is the node-locator key: doc, start.
func locatorKey(id xmltree.NodeID) []byte {
	k := make([]byte, 0, 8)
	k = append(k, be32(uint32(id.Doc))...)
	k = append(k, be32(id.Start)...)
	return k
}

// tagKey is the tag-index key: tag, 0x00, doc, start.
func tagKey(tag string, id xmltree.NodeID) []byte {
	k := make([]byte, 0, len(tag)+9)
	k = append(k, tag...)
	k = append(k, 0)
	k = append(k, be32(uint32(id.Doc))...)
	k = append(k, be32(id.Start)...)
	return k
}

// tagPrefix is the scan prefix for every node with the given tag.
func tagPrefix(tag string) []byte {
	k := make([]byte, 0, len(tag)+1)
	k = append(k, tag...)
	k = append(k, 0)
	return k
}

// valueKey is the value-index key: tag, 0x00, content, 0x00, doc, start.
// Contents longer than maxIndexedContent are not indexed (callers fall
// back to tag postings plus a record check).
func valueKey(tag, content string, id xmltree.NodeID) []byte {
	k := make([]byte, 0, len(tag)+len(content)+10)
	k = append(k, tag...)
	k = append(k, 0)
	k = append(k, content...)
	k = append(k, 0)
	k = append(k, be32(uint32(id.Doc))...)
	k = append(k, be32(id.Start)...)
	return k
}

func valuePrefix(tag, content string) []byte {
	k := make([]byte, 0, len(tag)+len(content)+2)
	k = append(k, tag...)
	k = append(k, 0)
	k = append(k, content...)
	k = append(k, 0)
	return k
}

// maxIndexedContent bounds the content portion of value-index keys.
const maxIndexedContent = 512

// postingValue encodes the non-key part of one posting in the bulk
// loader's sorted run, before blockKVs packs the run into blocks:
// end u32, level u16, rid.page u32, rid.slot u16 (little endian).
func postingValue(iv xmltree.Interval, rid pagestore.RID) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:], iv.End)
	binary.LittleEndian.PutUint16(b[4:], iv.Level)
	binary.LittleEndian.PutUint32(b[6:], uint32(rid.Page))
	binary.LittleEndian.PutUint16(b[10:], uint16(rid.Slot))
	return b
}

// decodePosting reassembles a posting from an index key's (doc, start)
// suffix and the stored value.
func decodePosting(keySuffix, value []byte) (Posting, error) {
	if len(keySuffix) != 8 || len(value) != 12 {
		return Posting{}, fmt.Errorf("storage: corrupt index posting (key %d, value %d bytes)", len(keySuffix), len(value))
	}
	var p Posting
	p.Interval.Doc = xmltree.DocID(binary.BigEndian.Uint32(keySuffix[0:]))
	p.Interval.Start = binary.BigEndian.Uint32(keySuffix[4:])
	p.Interval.End = binary.LittleEndian.Uint32(value[0:])
	p.Interval.Level = binary.LittleEndian.Uint16(value[4:])
	p.RID.Page = pagestore.PageID(binary.LittleEndian.Uint32(value[6:]))
	p.RID.Slot = pagestore.Slot(binary.LittleEndian.Uint16(value[10:]))
	return p, nil
}

// ridValue encodes a bare RID (locator value).
func ridValue(rid pagestore.RID) []byte {
	b := make([]byte, 6)
	binary.LittleEndian.PutUint32(b[0:], uint32(rid.Page))
	binary.LittleEndian.PutUint16(b[4:], uint16(rid.Slot))
	return b
}

func decodeRID(b []byte) (pagestore.RID, error) {
	if len(b) != 6 {
		return pagestore.RID{}, fmt.Errorf("storage: corrupt RID value (%d bytes)", len(b))
	}
	return pagestore.RID{
		Page: pagestore.PageID(binary.LittleEndian.Uint32(b[0:])),
		Slot: pagestore.Slot(binary.LittleEndian.Uint16(b[4:])),
	}, nil
}
