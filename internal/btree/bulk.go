package btree

import (
	"fmt"

	"timber/internal/pagestore"
)

// KV is one key/value pair for bulk loading.
type KV struct {
	Key   []byte
	Value []byte
}

// BulkLoad builds a tree bottom-up from key-sorted, duplicate-free
// pairs: leaves are filled left to right to a fill factor, then each
// internal level is built over the one below. This is how the index
// manager builds the indices of a database's first document: each page
// is written once, and InsertSorted merges later documents' runs into
// the result.
func BulkLoad(st *pagestore.Store, kvs []KV) (*Tree, error) {
	t := &Tree{st: st}
	if err := checkRun(kvs, t.MaxCell()); err != nil {
		return nil, fmt.Errorf("btree: bulk load: %w", err)
	}
	// Leave headroom so post-load inserts do not split immediately.
	capacity := (st.PageSize() - nodeOverhead) * 9 / 10

	// Build the leaf level.
	type built struct {
		id  pagestore.PageID
		sep []byte // first key of the node
	}
	var leaves []built
	var cur *node
	var curSize int
	flush := func() error {
		if cur == nil {
			return nil
		}
		id, err := t.allocNode(cur)
		if err != nil {
			return err
		}
		leaves = append(leaves, built{id: id, sep: cur.cells[0].key})
		cur = nil
		return nil
	}
	for _, kv := range kvs {
		cellSize := 4 + len(kv.Key) + len(kv.Value)
		if cur != nil && curSize+cellSize > capacity {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		if cur == nil {
			cur = &node{leaf: true, next: pagestore.InvalidPage}
			curSize = nodeOverhead
		}
		cur.cells = append(cur.cells, cell{
			key:   append([]byte(nil), kv.Key...),
			value: append([]byte(nil), kv.Value...),
		})
		curSize += cellSize
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		// Empty tree: a lone empty leaf.
		id, err := t.allocNode(&node{leaf: true, next: pagestore.InvalidPage})
		if err != nil {
			return nil, err
		}
		t.root = id
		return t, nil
	}
	// Chain the leaves.
	for i := 0; i+1 < len(leaves); i++ {
		if err := t.setNext(leaves[i].id, leaves[i+1].id); err != nil {
			return nil, err
		}
	}

	// Build internal levels until one node remains.
	level := leaves
	for len(level) > 1 {
		var up []built
		var in *node
		var inSize int
		flushInternal := func() error {
			if in == nil {
				return nil
			}
			id, err := t.allocNode(in)
			if err != nil {
				return err
			}
			up = append(up, built{id: id, sep: in.firstSep})
			in = nil
			return nil
		}
		for _, child := range level {
			cellSize := 6 + len(child.sep)
			if in != nil && inSize+cellSize > capacity {
				if err := flushInternal(); err != nil {
					return nil, err
				}
			}
			if in == nil {
				in = &node{left: child.id, firstSep: child.sep}
				inSize = nodeOverhead
				continue // leftmost child carries no separator
			}
			in.cells = append(in.cells, cell{key: child.sep, child: child.id})
			inSize += cellSize
		}
		if err := flushInternal(); err != nil {
			return nil, err
		}
		level = up
	}
	t.root = level[0].id
	return t, nil
}

// setNext updates a leaf's next pointer in place.
func (t *Tree) setNext(id, next pagestore.PageID) error {
	p, err := t.st.Fetch(id)
	if err != nil {
		return err
	}
	n, err := decode(p.Data())
	if err != nil {
		t.st.Unpin(p, false)
		return err
	}
	n.next = next
	n.encode(p.Data())
	t.st.Unpin(p, true)
	return nil
}
