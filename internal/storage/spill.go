package storage

import (
	"errors"
	"fmt"

	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// SpillTrees materializes a collection of trees through the storage
// engine and reads it back: every node of every tree is written as a
// record to temporary pages (through the buffer pool), then the
// records are scanned to rebuild the trees, and the temporary pages
// are released. This models what TIMBER's naive evaluation plans do
// between operators — intermediate collections such as the witness
// trees of Figure 7 or the TAX_prod_root trees of Figure 8 exist as
// stored trees, and both the writing and the re-reading flow through
// the same buffer pool as the base data, competing for its capacity.
//
// The input trees are renumbered in place (documents 1..n) so the
// records carry rebuildable positions; the returned trees are fresh.
//
// Safe for concurrent use: the pages come from the store's allocator
// like any writer's, and are returned to it on every exit path —
// success or error — so a failed spill no longer strands its pages
// until shutdown.
func (db *DB) SpillTrees(trees []*xmltree.Node) ([]*xmltree.Node, error) {
	if len(trees) == 0 {
		return nil, nil
	}
	heap, err := pagestore.NewHeap(db.st)
	if err != nil {
		return nil, err
	}
	// Spill pages are written once and read back once; compressing them
	// would cost a decompress on the read-back for no disk saving.
	heap.SetRaw()
	heap.Track()
	release := func() {
		pages := append([]pagestore.PageID{heap.FirstPage()}, heap.TakeTracked()...)
		if db.st.FreePages(pages) == nil {
			db.ing.spoolPagesFreed.Add(uint64(len(pages)))
		}
	}

	// Write.
	for i, tr := range trees {
		xmltree.Number(tr, xmltree.DocID(i+1))
		var werr error
		tr.Walk(func(n *xmltree.Node) bool {
			rec := &NodeRecord{
				Interval: n.Interval,
				Tag:      n.Tag,
				Content:  n.Content,
				Attrs:    n.Attrs,
			}
			if n.Parent != nil {
				rec.ParentStart = n.Parent.Interval.Start
			}
			if _, err := heap.Insert(encodeRecordCompact(rec)); err != nil {
				werr = err
				return false
			}
			return true
		})
		if werr != nil {
			release()
			return nil, fmt.Errorf("storage: spill: %w", werr)
		}
	}

	// Read back: records arrive in write order — tree by tree, each in
	// document order — so a level stack per tree rebuilds them.
	out := make([]*xmltree.Node, 0, len(trees))
	var stack []*xmltree.Node
	err = heap.Scan(func(_ pagestore.RID, b []byte) error {
		rec, err := decodeRecordCompact(b)
		if err != nil {
			return err
		}
		n := &xmltree.Node{
			Tag:      rec.Tag,
			Content:  rec.Content,
			Attrs:    rec.Attrs,
			Interval: rec.Interval,
		}
		if rec.ParentStart == 0 {
			out = append(out, n)
			stack = stack[:0]
			stack = append(stack, n)
			return nil
		}
		for len(stack) > 0 && stack[len(stack)-1].Interval.End < n.Interval.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return errors.New("storage: spill scan lost its ancestor stack")
		}
		stack[len(stack)-1].Append(n)
		stack = append(stack, n)
		return nil
	})
	if err != nil {
		release()
		return nil, fmt.Errorf("storage: spill read-back: %w", err)
	}
	if len(out) != len(trees) {
		release()
		return nil, fmt.Errorf("storage: spill rebuilt %d trees, wrote %d", len(out), len(trees))
	}

	// Release the temporary pages.
	release()
	return out, nil
}

// SpillTrees on a snapshot delegates to the database: spilled pages
// are scratch space, not part of any published state.
func (sn *Snapshot) SpillTrees(trees []*xmltree.Node) ([]*xmltree.Node, error) {
	return sn.db.SpillTrees(trees)
}

// NumPages exposes the store's allocated page count (used by tools to
// report database size).
func (db *DB) NumPages() uint32 { return db.st.NumPages() }
