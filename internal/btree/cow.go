package btree

import (
	"bytes"
	"fmt"

	"timber/internal/pagestore"
)

// COW is a copy-on-write mutation of a tree: inserts and deletes build
// a new root whose path pages are fresh copies, while every page of
// the original tree stays byte-for-byte untouched. Readers holding the
// old root keep a consistent snapshot for as long as the superseded
// pages are preserved; the caller commits by persisting Root() and
// eventually retiring Freed() once no snapshot can still reach them,
// or aborts by discarding Allocated().
//
// Pages allocated by this COW (including the copies themselves) are
// mutated in place on later operations — they are invisible to every
// reader until the new root is published, so re-copying them would
// only burn pages. The allocated set is exactly what a write-ahead log
// must capture: no page outside it is written.
//
// Deletion does not rebalance: leaves may empty out and internal nodes
// keep their fan-out. The workload deletes whole documents from
// indexes that otherwise only grow, so the slack is reclaimed by the
// next offline rebuild rather than paid for on every delete (and the
// iterator skips empty leaves).
//
// A COW is single-goroutine; concurrency comes from snapshots, not
// from sharing the mutation handle.
type COW struct {
	st    *pagestore.Store
	m     *Metrics
	root  pagestore.PageID
	fresh map[pagestore.PageID]struct{}
	alloc []pagestore.PageID // allocation order, for logging
	freed []pagestore.PageID // superseded committed pages
}

// BeginCOW starts a copy-on-write mutation over the tree's current
// root. The tree handle itself is never modified.
func (t *Tree) BeginCOW() *COW {
	return &COW{st: t.st, m: t.m, root: t.root, fresh: make(map[pagestore.PageID]struct{})}
}

// Root returns the mutation's current root page. After the first
// insert or delete it differs from the original tree's root.
func (c *COW) Root() pagestore.PageID { return c.root }

// Allocated returns every page this mutation allocated, in allocation
// order.
func (c *COW) Allocated() []pagestore.PageID { return c.alloc }

// Freed returns the committed pages this mutation superseded. They are
// still intact — readers of the old root may be traversing them — and
// must only be reclaimed once every snapshot that could reach them is
// closed.
func (c *COW) Freed() []pagestore.PageID { return c.freed }

// MaxCell mirrors Tree.MaxCell for the underlying store.
func (c *COW) MaxCell() int { return MaxCellFor(c.st.PageSize()) }

func (c *COW) readNode(id pagestore.PageID) (*node, error) {
	p, err := c.st.Fetch(id)
	if err != nil {
		return nil, err
	}
	c.m.visit()
	defer c.st.Unpin(p, false)
	return decode(p.Data())
}

func (c *COW) allocNode(n *node) (pagestore.PageID, error) {
	p, err := c.st.Allocate()
	if err != nil {
		return 0, err
	}
	n.encode(p.Data())
	id := p.ID()
	c.st.Unpin(p, true)
	c.fresh[id] = struct{}{}
	c.alloc = append(c.alloc, id)
	return id, nil
}

// writeNode persists n under id if this mutation already owns the
// page, or under a fresh copy otherwise (recording the superseded
// page), returning the id the parent must now point at.
func (c *COW) writeNode(id pagestore.PageID, n *node) (pagestore.PageID, error) {
	if _, ok := c.fresh[id]; ok {
		p, err := c.st.Fetch(id)
		if err != nil {
			return 0, err
		}
		n.encode(p.Data())
		c.st.Unpin(p, true)
		return id, nil
	}
	c.freed = append(c.freed, id)
	return c.allocNode(n)
}

// setChild repoints child ordinal i (0 = leftmost) of n at newID.
func (n *node) setChild(i int, newID pagestore.PageID) {
	if i == 0 {
		n.left = newID
	} else {
		n.cells[i-1].child = newID
	}
}

// Delete removes key. It returns ErrNotFound if the key is absent;
// the tree is structurally unchanged in that case.
func (c *COW) Delete(key []byte) error {
	newRoot, found, err := c.deleteFrom(c.root, key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	c.root = newRoot
	return nil
}

// deleteFrom removes key from the subtree at id, returning the
// (possibly fresh) id now holding it. No rebalancing: an emptied leaf
// stays in the tree and is skipped by iteration.
func (c *COW) deleteFrom(id pagestore.PageID, key []byte) (newID pagestore.PageID, found bool, err error) {
	n, err := c.readNode(id)
	if err != nil {
		return 0, false, err
	}
	if n.leaf {
		i := searchCells(n.cells, key)
		if i >= len(n.cells) || !bytes.Equal(n.cells[i].key, key) {
			return id, false, nil
		}
		n.cells = append(n.cells[:i], n.cells[i+1:]...)
		newID, err = c.writeNode(id, n)
		return newID, true, err
	}
	ci, childID := n.childIndexFor(key)
	newChild, found, err := c.deleteFrom(childID, key)
	if err != nil || !found {
		return id, found, err
	}
	if newChild == childID {
		return id, true, nil // child was already fresh and updated in place
	}
	n.setChild(ci, newChild)
	newID, err = c.writeNode(id, n)
	return newID, true, err
}
