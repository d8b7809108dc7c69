// Package btree implements a disk-backed B+tree over the page store. It
// is the index substrate of the TIMBER-style Index Manager: the tag-name
// index and the (tag, content) value index are both B+trees.
//
// Keys are arbitrary byte strings and must be unique; multi-maps (a tag
// index posting many nodes under one tag) are obtained by appending a
// unique suffix — typically the node identifier — to the user key and
// scanning by prefix. Values are opaque byte strings. The tree supports
// bulk loading, batch insertion, exact lookup, and ordered iteration
// from a seek key, which together cover everything index construction
// and pattern matching (Sec. 5.2 of the paper) require. Deletion exists
// only on the copy-on-write handle (COW.Delete) and does not rebalance.
//
// Writes are batches: InsertSorted partitions a sorted run by each
// internal node's separators, decodes every touched node once, merges
// each leaf's sub-run in one pass, and splits an overfull node into as
// many balanced pages as it needs, passing the new separators up and
// growing the root by as many levels as required. Insert is a
// one-pair batch. The root page ID after loading must be persisted by
// the caller (the metadata manager does this).
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"timber/internal/pagestore"
)

// ErrNotFound is returned by Get when the key is absent.
var ErrNotFound = errors.New("btree: key not found")

// ErrDuplicate is returned by Insert when the key is already present.
var ErrDuplicate = errors.New("btree: duplicate key")

const (
	flagLeaf     = 1
	nodeOverhead = 7 // flags(1) + numCells(2) + next/child0(4)
)

// Tree is a B+tree rooted at a page of a store.
type Tree struct {
	st   *pagestore.Store
	root pagestore.PageID
	m    *Metrics // optional traversal counters; nil = uninstrumented
}

// New creates an empty tree in the store.
func New(st *pagestore.Store) (*Tree, error) {
	p, err := st.Allocate()
	if err != nil {
		return nil, fmt.Errorf("btree: new: %w", err)
	}
	leaf := &node{leaf: true, next: pagestore.InvalidPage}
	leaf.encode(p.Data())
	st.Unpin(p, true)
	return &Tree{st: st, root: p.ID()}, nil
}

// Open reopens a tree whose root page is known.
func Open(st *pagestore.Store, root pagestore.PageID) *Tree {
	return &Tree{st: st, root: root}
}

// Root returns the current root page ID. It changes when the root
// splits, so callers persist it after loading completes.
func (t *Tree) Root() pagestore.PageID { return t.root }

// MaxCell returns the largest key+value byte total a tree in the store
// can accept. It guarantees a post-split node can always host the cell.
func (t *Tree) MaxCell() int { return MaxCellFor(t.st.PageSize()) }

// MaxCellFor returns the MaxCell bound for a given usable page size,
// for callers that size cells before a tree exists (bulk-load planning).
func MaxCellFor(pageSize int) int { return (pageSize - nodeOverhead) / 4 }

// cell is one key/value pair in a leaf, or one separator/child pair in
// an internal node (value unused there).
type cell struct {
	key   []byte
	value []byte           // leaf only
	child pagestore.PageID // internal only: subtree with keys >= key
}

// node is the decoded form of a B+tree page.
//
// Encoding (little endian):
//
//	[0]    flags (1 = leaf)
//	[1:3)  numCells
//	[3:7)  leaf: next leaf PageID; internal: leftmost child PageID
//	cells: leaf:     {klen u16, vlen u16, key, value}*
//	       internal: {klen u16, key, child u32}*
type node struct {
	leaf  bool
	next  pagestore.PageID // leaf chain
	left  pagestore.PageID // internal: leftmost child
	cells []cell

	// firstSep is the smallest key in the node's subtree. It is used
	// only while bulk-loading (to pass separators up a level) and is
	// not encoded on the page.
	firstSep []byte
}

// decode parses a page into a node. It copies the page once and the
// cells' keys and values slice into that copy, so the node stays valid
// after the page is unpinned.
func decode(data []byte) (*node, error) {
	data = append([]byte(nil), data...)
	n := &node{leaf: data[0]&flagLeaf != 0}
	num := int(binary.LittleEndian.Uint16(data[1:3]))
	n.cells = make([]cell, 0, num)
	p := binary.LittleEndian.Uint32(data[3:7])
	if n.leaf {
		n.next = pagestore.PageID(p)
	} else {
		n.left = pagestore.PageID(p)
	}
	off := nodeOverhead
	for i := 0; i < num; i++ {
		var c cell
		if off+2 > len(data) {
			return nil, errors.New("btree: corrupt node (key length)")
		}
		klen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if n.leaf {
			if off+2 > len(data) {
				return nil, errors.New("btree: corrupt node (value length)")
			}
			vlen := int(binary.LittleEndian.Uint16(data[off:]))
			off += 2
			if off+klen+vlen > len(data) {
				return nil, errors.New("btree: corrupt node (cell body)")
			}
			c.key = data[off : off+klen : off+klen]
			off += klen
			c.value = data[off : off+vlen : off+vlen]
			off += vlen
		} else {
			if off+klen+4 > len(data) {
				return nil, errors.New("btree: corrupt node (separator)")
			}
			c.key = data[off : off+klen : off+klen]
			off += klen
			c.child = pagestore.PageID(binary.LittleEndian.Uint32(data[off:]))
			off += 4
		}
		n.cells = append(n.cells, c)
	}
	return n, nil
}

func (n *node) encodedSize() int {
	size := nodeOverhead
	for _, c := range n.cells {
		if n.leaf {
			size += 4 + len(c.key) + len(c.value)
		} else {
			size += 6 + len(c.key)
		}
	}
	return size
}

func (n *node) encode(data []byte) {
	var flags byte
	if n.leaf {
		flags |= flagLeaf
	}
	data[0] = flags
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.cells)))
	if n.leaf {
		binary.LittleEndian.PutUint32(data[3:7], uint32(n.next))
	} else {
		binary.LittleEndian.PutUint32(data[3:7], uint32(n.left))
	}
	off := nodeOverhead
	for _, c := range n.cells {
		binary.LittleEndian.PutUint16(data[off:], uint16(len(c.key)))
		off += 2
		if n.leaf {
			binary.LittleEndian.PutUint16(data[off:], uint16(len(c.value)))
			off += 2
			off += copy(data[off:], c.key)
			off += copy(data[off:], c.value)
		} else {
			off += copy(data[off:], c.key)
			binary.LittleEndian.PutUint32(data[off:], uint32(c.child))
			off += 4
		}
	}
	// Zero the remainder so stale bytes never resurface after shrink.
	for i := off; i < len(data); i++ {
		data[i] = 0
	}
}

func (t *Tree) readNode(id pagestore.PageID) (*node, error) {
	p, err := t.st.Fetch(id)
	if err != nil {
		return nil, err
	}
	t.m.visit()
	defer t.st.Unpin(p, false)
	return decode(p.Data())
}

// writeNode rewrites page id in place.
func (t *Tree) writeNode(id pagestore.PageID, n *node) (pagestore.PageID, error) {
	p, err := t.st.Fetch(id)
	if err != nil {
		return id, err
	}
	n.encode(p.Data())
	t.st.Unpin(p, true)
	return id, nil
}

func (t *Tree) allocNode(n *node) (pagestore.PageID, error) {
	p, err := t.st.Allocate()
	if err != nil {
		return 0, err
	}
	n.encode(p.Data())
	id := p.ID()
	t.st.Unpin(p, true)
	return id, nil
}

// searchCells returns the index of the first cell whose key is >= key.
func searchCells(cells []cell, key []byte) int {
	lo, hi := 0, len(cells)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(cells[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndexFor returns the ordinal of the child to descend into for
// key (0 = leftmost, k = cells[k-1].child) together with its page. A
// separator's child holds keys >= the separator; left holds keys below
// the first separator.
func (n *node) childIndexFor(key []byte) (int, pagestore.PageID) {
	i := searchCells(n.cells, key)
	// cells[i].key >= key; descend into the child left of it unless the
	// separator equals key, in which case the key lives at/after it.
	if i < len(n.cells) && bytes.Equal(n.cells[i].key, key) {
		return i + 1, n.cells[i].child
	}
	if i == 0 {
		return 0, n.left
	}
	return i, n.cells[i-1].child
}

// Get returns the value stored under key, or ErrNotFound. The descent
// scans encoded pages in place (see inplace.go), so a point lookup
// allocates only the returned value.
func (t *Tree) Get(key []byte) ([]byte, error) {
	return t.getFast(key)
}

// Len returns the number of keys in the tree. It iterates every cell
// (through the parent stack, not the leaf chain — the chain is stale
// on COW-updated trees) and is intended for tests and statistics, not
// hot paths.
func (t *Tree) Len() (int, error) {
	total := 0
	it := t.Seek(nil)
	for it.Valid() {
		total++
		it.Next()
	}
	return total, it.Close()
}

// Height returns the number of levels in the tree (1 for a lone leaf).
func (t *Tree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return h, nil
		}
		h++
		id = n.left
	}
}
