package btree

import (
	"bytes"
	"fmt"
	"sort"

	"timber/internal/pagestore"
)

// This file holds the one insert kernel both write modes share: a
// sorted run is partitioned by the separators of each internal node,
// every touched node is decoded once per batch, a leaf absorbs its
// sub-run in one merge, and an overfull node splits into as many
// balanced pages as it needs, passing all new separators up. Tree and
// COW differ only in how a node is written back.

// nodeStore is how the insert kernel reads and writes one tree's pages.
type nodeStore interface {
	readNode(id pagestore.PageID) (*node, error)
	allocNode(n *node) (pagestore.PageID, error)
	// writeNode stores n as the new contents of page id and returns the
	// page the parent must now point at: id itself for an in-place
	// Tree, a shadow copy for a COW that does not own id yet.
	writeNode(id pagestore.PageID, n *node) (pagestore.PageID, error)
}

// checkRun validates a batch: non-empty keys, strictly increasing, and
// every cell within maxCell.
func checkRun(kvs []KV, maxCell int) error {
	for i, kv := range kvs {
		if len(kv.Key) == 0 {
			return fmt.Errorf("empty key at %d", i)
		}
		if i > 0 && bytes.Compare(kvs[i-1].Key, kv.Key) >= 0 {
			return fmt.Errorf("keys not strictly increasing at %d (%q >= %q)", i, kvs[i-1].Key, kv.Key)
		}
		if len(kv.Key)+len(kv.Value) > maxCell {
			return fmt.Errorf("cell %d of %d bytes exceeds max %d", i, len(kv.Key)+len(kv.Value), maxCell)
		}
	}
	return nil
}

// InsertSorted merges a run of key-sorted, duplicate-free pairs into
// the tree in place. Each node on the paths the run touches is read
// and written once, however many keys land under it. Empty keys,
// unsorted runs and oversize cells are rejected before anything is
// written; a key the tree already holds is ErrDuplicate, reported
// before its leaf is written. After an error the tree is well formed
// and holds the keys of the leaves merged before it.
func (t *Tree) InsertSorted(kvs []KV) (err error) {
	t.root, err = insertSorted(t, t.st, t.root, kvs)
	return err
}

// Insert stores value under key: InsertSorted of a one-pair run.
func (t *Tree) Insert(key, value []byte) error {
	return t.InsertSorted([]KV{{Key: key, Value: value}})
}

// InsertSorted is Tree.InsertSorted through the shadow path: no page
// reachable from the original root is written. On error, Allocated
// still lists every page the batch took, so the caller can free them.
func (c *COW) InsertSorted(kvs []KV) (err error) {
	c.root, err = insertSorted(c, c.st, c.root, kvs)
	return err
}

// Insert stores value under key through the shadow path: InsertSorted
// of a one-pair run.
func (c *COW) Insert(key, value []byte) error {
	return c.InsertSorted([]KV{{Key: key, Value: value}})
}

// insertSorted validates a run, merges it into the tree rooted at root
// and returns the new root, grown by as many levels as the root's split
// needs.
func insertSorted(s nodeStore, st *pagestore.Store, root pagestore.PageID, kvs []KV) (pagestore.PageID, error) {
	if err := checkRun(kvs, MaxCellFor(st.PageSize())); err != nil {
		return root, fmt.Errorf("btree: insert: %w", err)
	}
	if len(kvs) == 0 {
		return root, nil
	}
	pageSize := st.PageSize()
	root, ups, err := merge(s, pageSize, root, kvs)
	for len(ups) > 0 {
		newRoot, more, werr := store(s, pageSize, pagestore.InvalidPage, &node{left: root, cells: ups})
		if werr != nil {
			return root, werr
		}
		root, ups = newRoot, more
	}
	return root, err
}

// merge inserts the sorted run kvs into the subtree at id. It returns
// the page now holding the subtree and, when the node split, one
// separator cell per new right sibling for the parent to absorb. A
// child's error stops the run, but the children merged before it are
// still linked in, so the subtree stays well formed.
func merge(s nodeStore, pageSize int, id pagestore.PageID, kvs []KV) (pagestore.PageID, []cell, error) {
	n, err := s.readNode(id)
	if err != nil {
		return id, nil, err
	}
	if n.leaf {
		if err := n.mergeLeaf(kvs); err != nil {
			return id, nil, err
		}
		return store(s, pageSize, id, n)
	}
	// slots[i] is child ordinal i: slot 0 is the leftmost child (no
	// separator), slot k is cells[k-1].
	slots := make([]cell, 0, len(n.cells)+1)
	slots = append(slots, cell{child: n.left})
	slots = append(slots, n.cells...)
	out := make([]cell, 0, len(slots))
	done, changed := 0, false
	for len(kvs) > 0 {
		ci, child := n.childIndexFor(kvs[0].Key)
		end := len(kvs)
		if ci+1 < len(slots) {
			sep := slots[ci+1].key
			end = sort.Search(len(kvs), func(i int) bool { return bytes.Compare(kvs[i].Key, sep) >= 0 })
		}
		newChild, ups, cerr := merge(s, pageSize, child, kvs[:end])
		out = append(out, slots[done:ci]...)
		out = append(out, cell{key: slots[ci].key, child: newChild})
		out = append(out, ups...)
		done = ci + 1
		changed = changed || newChild != child || len(ups) > 0
		kvs = kvs[end:]
		if cerr != nil {
			err = cerr
			break
		}
	}
	if !changed {
		return id, nil, err // every touched child kept its page
	}
	out = append(out, slots[done:]...)
	n.left, n.cells = out[0].child, out[1:]
	newID, ups, werr := store(s, pageSize, id, n)
	if werr != nil {
		return newID, nil, werr
	}
	return newID, ups, err
}

// mergeLeaf merges a sorted run into a leaf's cells. A key the leaf
// already holds is ErrDuplicate, reported before the leaf changes.
func (n *node) mergeLeaf(kvs []KV) error {
	out := make([]cell, 0, len(n.cells)+len(kvs))
	i := 0
	for _, kv := range kvs {
		j := i + searchCells(n.cells[i:], kv.Key)
		if j < len(n.cells) && bytes.Equal(n.cells[j].key, kv.Key) {
			return fmt.Errorf("%w: %q", ErrDuplicate, kv.Key)
		}
		out = append(out, n.cells[i:j]...)
		out = append(out, cell{key: kv.Key, value: kv.Value})
		i = j
	}
	n.cells = append(out, n.cells[i:]...)
	return nil
}

// store writes n as page id, or as a new page when id is InvalidPage.
// A node that outgrew its page is split first; the separator cells of
// its new right siblings are returned for the parent to absorb.
func store(s nodeStore, pageSize int, id pagestore.PageID, n *node) (pagestore.PageID, []cell, error) {
	pieces, ups := []*node{n}, []cell(nil)
	if n.encodedSize() > pageSize {
		pieces, ups = n.split(pageSize)
	}
	// Allocate right to left so each leaf piece can name its successor.
	next := n.next
	for j := len(pieces) - 1; j > 0; j-- {
		pieces[j].next = next
		pid, err := s.allocNode(pieces[j])
		if err != nil {
			return id, nil, err
		}
		ups[j-1].child, next = pid, pid
	}
	pieces[0].next = next
	var err error
	if id == pagestore.InvalidPage {
		id, err = s.allocNode(pieces[0])
	} else {
		id, err = s.writeNode(id, pieces[0])
	}
	return id, ups, err
}

// split divides an overfull node into the fewest pages that hold it,
// balanced by encoded size, so a page that overflows by one cell
// becomes two half-full pages, not a full one and a one-cell one. It
// returns the pieces in key order and, for every piece after the
// first, the separator the parent files it under (child left unset): a
// leaf piece's first key, or for an internal piece the separator of
// its leftmost child, which moves up.
func (n *node) split(pageSize int) ([]*node, []cell) {
	// items are the node's entries in order; for an internal node they
	// are child slots, and the first slot of a piece is taken but rides
	// free on its page (its child becomes the piece's leftmost pointer).
	items := n.cells
	cost := func(i int) int { return 4 + len(items[i].key) + len(items[i].value) }
	if !n.leaf {
		items = append([]cell{{child: n.left}}, n.cells...)
		cost = func(i int) int { return 6 + len(items[i].key) }
	}
	total := 0
	for i := range items {
		total += cost(i)
	}
	usable := pageSize - nodeOverhead
	// cut returns the first item of each of at most k pieces that fit
	// on a page, each aimed at an equal share of what is left, or nil if
	// k pieces cannot hold every item. Cells are at most a quarter page,
	// so some k <= len(items) succeeds.
	cut := func(k int) []int {
		starts := make([]int, 0, k)
		i, remaining := 0, total
		for g := 0; g < k && i < len(items); g++ {
			starts = append(starts, i)
			target := remaining / (k - g)
			size, share := 0, 0 // bytes on the page; bytes of items taken
			if !n.leaf {
				share = cost(i)
				remaining -= share
				i++
			}
			for ; i < len(items); i++ {
				c := cost(i)
				if size+c > usable || (size > 0 && share+c/2 > target) {
					break
				}
				size += c
				share += c
				remaining -= c
			}
		}
		if i < len(items) {
			return nil
		}
		return starts
	}
	var starts []int
	for k := max(2, (total+usable-1)/usable); starts == nil; k++ {
		starts = cut(k)
	}
	pieces := make([]*node, len(starts))
	ups := make([]cell, len(starts)-1)
	for g, st := range starts {
		end := len(items)
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		p := &node{leaf: n.leaf}
		if n.leaf {
			p.cells = items[st:end]
		} else {
			p.left, p.cells = items[st].child, items[st+1:end]
		}
		if g > 0 {
			ups[g-1].key = items[st].key
		}
		pieces[g] = p
	}
	return pieces, ups
}
