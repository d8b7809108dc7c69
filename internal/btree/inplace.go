package btree

import (
	"bytes"

	"timber/internal/pagestore"
)

// This file implements allocation-free search over encoded node pages.
// Decoding a node copies every cell, which is fine for scans (the cost
// amortizes over the whole leaf) but dominates point lookups: a locator
// probe would otherwise copy hundreds of cells per level. Get and the
// Seek descent therefore scan the encoded bytes in place while the page
// is pinned, allocating only the final returned value.

// internalChildEncoded returns the child page to descend into for key,
// scanning an encoded internal node in place. Same semantics as
// (*node).childIndexFor.
func internalChildEncoded(data []byte, key []byte) pagestore.PageID {
	num := int(uint16(data[1]) | uint16(data[2])<<8)
	left := pagestore.PageID(uint32(data[3]) | uint32(data[4])<<8 | uint32(data[5])<<16 | uint32(data[6])<<24)
	off := nodeOverhead
	prev := left
	for i := 0; i < num; i++ {
		klen := int(uint16(data[off]) | uint16(data[off+1])<<8)
		off += 2
		cellKey := data[off : off+klen]
		off += klen
		child := pagestore.PageID(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 4
		switch bytes.Compare(cellKey, key) {
		case 0:
			return child
		case 1: // cellKey > key: the key lives left of this separator
			return prev
		}
		prev = child
	}
	return prev
}

// internalChildIndex is internalChildEncoded returning the child's
// ordinal as well: 0 is the leftmost child, k is cells[k-1].child. The
// iterator's parent stack stores the ordinal so it can resume the
// descent one child to the right when a leaf is exhausted.
func internalChildIndex(data []byte, key []byte) (int, pagestore.PageID) {
	num := int(uint16(data[1]) | uint16(data[2])<<8)
	left := pagestore.PageID(uint32(data[3]) | uint32(data[4])<<8 | uint32(data[5])<<16 | uint32(data[6])<<24)
	off := nodeOverhead
	prev, prevIdx := left, 0
	for i := 0; i < num; i++ {
		klen := int(uint16(data[off]) | uint16(data[off+1])<<8)
		off += 2
		cellKey := data[off : off+klen]
		off += klen
		child := pagestore.PageID(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 4
		switch bytes.Compare(cellKey, key) {
		case 0:
			return i + 1, child
		case 1:
			return prevIdx, prev
		}
		prev, prevIdx = child, i+1
	}
	return prevIdx, prev
}

// internalChildAt returns child number i of an encoded internal node
// (0 = leftmost child, k = cells[k-1].child).
func internalChildAt(data []byte, i int) pagestore.PageID {
	if i == 0 {
		return pagestore.PageID(uint32(data[3]) | uint32(data[4])<<8 | uint32(data[5])<<16 | uint32(data[6])<<24)
	}
	off := nodeOverhead
	for k := 1; ; k++ {
		klen := int(uint16(data[off]) | uint16(data[off+1])<<8)
		off += 2 + klen
		if k == i {
			return pagestore.PageID(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		}
		off += 4
	}
}

// internalNumChildren returns the child count of an encoded internal
// node (separator count plus one).
func internalNumChildren(data []byte) int {
	return int(uint16(data[1])|uint16(data[2])<<8) + 1
}

// leafSearchEncoded locates key in an encoded leaf, returning the value
// bounds within data. found is false when the key is absent.
func leafSearchEncoded(data []byte, key []byte) (valOff, valLen int, found bool) {
	num := int(uint16(data[1]) | uint16(data[2])<<8)
	off := nodeOverhead
	for i := 0; i < num; i++ {
		klen := int(uint16(data[off]) | uint16(data[off+1])<<8)
		vlen := int(uint16(data[off+2]) | uint16(data[off+3])<<8)
		off += 4
		cellKey := data[off : off+klen]
		off += klen
		switch bytes.Compare(cellKey, key) {
		case 0:
			return off, vlen, true
		case 1: // sorted: passed the insertion point
			return 0, 0, false
		}
		off += vlen
	}
	return 0, 0, false
}

// getFast is the allocation-free Get implementation.
func (t *Tree) getFast(key []byte) ([]byte, error) {
	id := t.root
	for {
		p, err := t.st.Fetch(id)
		if err != nil {
			return nil, err
		}
		t.m.visit()
		data := p.Data()
		if data[0]&flagLeaf != 0 {
			valOff, valLen, found := leafSearchEncoded(data, key)
			if !found {
				t.st.Unpin(p, false)
				return nil, ErrNotFound
			}
			out := make([]byte, valLen)
			copy(out, data[valOff:valOff+valLen])
			t.st.Unpin(p, false)
			return out, nil
		}
		next := internalChildEncoded(data, key)
		t.st.Unpin(p, false)
		id = next
	}
}
