package storage

import (
	"errors"
	"fmt"

	"timber/internal/xmltree"
)

// SpillTrees materializes a collection of trees through the storage
// engine and reads it back: every node of every tree is written as a
// record to one spool run (through the buffer pool, one pin per page
// filled), then the run's pages are read once each to rebuild the
// trees, and the spool is closed. This models what TIMBER's naive
// evaluation plans do between operators — intermediate collections
// such as the witness trees of Figure 7 or the TAX_prod_root trees of
// Figure 8 exist as stored trees, and both the writing and the
// re-reading flow through the same buffer pool as the base data,
// competing for its capacity.
//
// The input trees are renumbered in place (documents 1..n) so the
// records carry rebuildable positions; the returned trees are fresh.
//
// Safe for concurrent use: the spool allocates from the store like any
// writer and is closed on every exit path, success or error.
func (sn *Snapshot) SpillTrees(trees []*xmltree.Node) (out []*xmltree.Node, err error) {
	if len(trees) == 0 {
		return nil, nil
	}
	spool := sn.NewSpool()
	defer func() {
		if cerr := spool.Close(); cerr != nil && err == nil {
			out, err = nil, cerr
		}
	}()
	run, err := spool.NewRun()
	if err != nil {
		return nil, err
	}

	// Write: every record is encoded into one reused buffer.
	var buf []byte
	records := 0
	for i, tr := range trees {
		xmltree.Number(tr, xmltree.DocID(i+1))
		var werr error
		tr.Walk(func(n *xmltree.Node) bool {
			buf = appendNodeRecord(buf[:0], n)
			if werr = run.Append(buf); werr != nil {
				return false
			}
			records++
			return true
		})
		if werr != nil {
			return nil, fmt.Errorf("storage: spill: %w", werr)
		}
	}

	// Read back: records arrive in write order — tree by tree, each in
	// document order — and decode straight into one node slab, tags
	// interned once per spill. A stack of open ancestors per tree finds
	// each node's parent.
	nodes := make([]xmltree.Node, records)
	tags := make(map[string]string)
	out = make([]*xmltree.Node, 0, len(trees))
	var stack []*xmltree.Node
	read := 0
	cur := run.Open()
	defer cur.Close() // before the spool frees the pages
	for b, ok := cur.Next(); ok; b, ok = cur.Next() {
		if read == records {
			return nil, errors.New("storage: spill read back more records than it wrote")
		}
		n := &nodes[read]
		read++
		parentStart, err := decodeRecordNode(b, n, tags)
		if err != nil {
			return nil, fmt.Errorf("storage: spill read-back: %w", err)
		}
		if parentStart == 0 {
			out = append(out, n)
			stack = append(stack[:0], n)
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].Interval.End < n.Interval.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return nil, errors.New("storage: spill read-back lost its ancestor stack")
		}
		stack[len(stack)-1].Append(n)
		stack = append(stack, n)
	}
	if err := cur.Close(); err != nil {
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
