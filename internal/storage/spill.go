package storage

import (
	"errors"
	"fmt"

	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// SpillTrees materializes a collection of trees through the storage
// engine and reads it back: every node of every tree is written as a
// record to temporary pages (through the buffer pool, one pin per page
// filled), then the pages are scanned once each to rebuild the trees,
// and the temporary pages are released. This models what TIMBER's naive evaluation plans do
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
func (sn *Snapshot) SpillTrees(trees []*xmltree.Node) ([]*xmltree.Node, error) {
	db := sn.db
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
	defer func() {
		pages := append([]pagestore.PageID{heap.FirstPage()}, heap.TakeTracked()...)
		if db.st.FreePages(pages) == nil {
			db.ing.spoolPagesFreed.Add(uint64(len(pages)))
		}
	}()

	// Write: every record is encoded into one reused buffer, and the
	// appender pins each page once while it fills.
	app := heap.Appender()
	defer app.Close() // before the pages are freed
	var buf []byte
	records := 0
	for i, tr := range trees {
		xmltree.Number(tr, xmltree.DocID(i+1))
		var werr error
		tr.Walk(func(n *xmltree.Node) bool {
			buf = appendNodeRecord(buf[:0], n)
			if _, werr = app.Append(buf); werr != nil {
				return false
			}
			records++
			return true
		})
		if werr != nil {
			return nil, fmt.Errorf("storage: spill: %w", werr)
		}
	}
	app.Close()

	// Read back: records arrive in write order — tree by tree, each in
	// document order — and decode straight into one node slab, tags
	// interned once per spill. A stack of open ancestors per tree finds
	// each node's parent.
	nodes := make([]xmltree.Node, records)
	tags := make(map[string]string)
	out := make([]*xmltree.Node, 0, len(trees))
	var stack []*xmltree.Node
	read := 0
	err = heap.Scan(func(_ pagestore.RID, b []byte) error {
		if read == records {
			return errors.New("storage: spill read back more records than it wrote")
		}
		n := &nodes[read]
		read++
		parentStart, err := decodeRecordNode(b, n, tags)
		if err != nil {
			return err
		}
		if parentStart == 0 {
			out = append(out, n)
			stack = append(stack[:0], n)
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
		return nil, fmt.Errorf("storage: spill read-back: %w", err)
	}
	if len(out) != len(trees) || read != records {
		return nil, fmt.Errorf("storage: spill rebuilt %d trees from %d records, wrote %d from %d",
			len(out), read, len(trees), records)
	}
	return out, nil
}

// NumPages exposes the store's allocated page count (used by tools to
// report database size).
func (db *DB) NumPages() uint32 { return db.st.NumPages() }
