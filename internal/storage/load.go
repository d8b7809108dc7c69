package storage

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"timber/internal/btree"
	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// LoadDocument numbers the tree rooted at root and stores every node:
// a record in the data heap, a locator entry, a tag-index entry, and
// (unless disabled) a value-index entry. It returns the new document's
// ID. Document IDs are assigned sequentially starting at 1. The tree is
// numbered in place, so the caller can continue to use it with interval
// operations; the database itself keeps no reference to it.
//
// LoadDocument is the OFFLINE bulk path: it mutates index pages in
// place (the first document bulk-loads the trees bottom-up, orders of
// magnitude faster than per-node inserts) and therefore requires
// exclusive access — no snapshot, spool or concurrent writer — and is
// not crash-safe while running (a crash mid-load means rebuilding the
// database from sources). It checkpoints on entry and exit, so it
// composes correctly with durable ingest before and after. For online,
// crash-safe, concurrent-reader-safe ingest use InsertDocument.
func (db *DB) LoadDocument(name string, root *xmltree.Node) (xmltree.DocID, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	// Flush any WAL-resident state first: the load mutates pages in
	// place without logging, which would invalidate replaying earlier
	// transactions on top of them.
	if db.wal != nil && db.wal.Size() > 0 {
		if err := db.checkpointLocked(); err != nil {
			return 0, fmt.Errorf("storage: load %q: pre-checkpoint: %w", name, err)
		}
	}
	base := db.tip
	doc := xmltree.DocID(base.nextDocID)
	xmltree.Number(root, doc)

	heap := pagestore.OpenHeapAt(db.st, base.heapFirst, base.heapLast)
	heap.SetRaw()
	catalog := db.tree(base.catalog)
	locator := db.tree(base.locator)
	tagIdx := db.tree(base.tag)
	var valIdx *btree.Tree
	if base.hasVal {
		valIdx = db.tree(base.val)
	}
	h := &loadHandles{heap: heap, locator: locator, tagIdx: tagIdx, valIdx: valIdx}

	bulk := len(base.docs) == 0
	var entries *indexEntries
	if bulk {
		entries = &indexEntries{}
	}

	var count uint64
	var loadErr error
	root.Walk(func(n *xmltree.Node) bool {
		if loadErr != nil {
			return false
		}
		rec := &NodeRecord{
			Interval: n.Interval,
			Tag:      n.Tag,
			Content:  n.Content,
			Attrs:    n.Attrs,
		}
		if n.Parent != nil {
			rec.ParentStart = n.Parent.Interval.Start
		}
		if err := db.storeNode(h, rec, entries); err != nil {
			loadErr = err
			return false
		}
		count++
		return true
	})
	if loadErr != nil {
		return 0, fmt.Errorf("storage: load %q: %w", name, loadErr)
	}
	if bulk {
		if err := db.bulkBuildIndexes(h, entries); err != nil {
			return 0, fmt.Errorf("storage: load %q: %w", name, err)
		}
	}

	info := DocInfo{ID: doc, Name: name, RootStart: root.Interval.Start, NodeCount: count}
	if err := catalog.Insert(catalogKey(doc), encodeDocInfo(info)); err != nil {
		return 0, fmt.Errorf("storage: load %q: catalog: %w", name, err)
	}

	ns := &snapState{
		epoch:     base.epoch + 1,
		heapFirst: h.heap.FirstPage(),
		heapLast:  h.heap.LastPage(),
		catalog:   catalog.Root(),
		locator:   h.locator.Root(),
		tag:       h.tagIdx.Root(),
		hasVal:    base.hasVal,
		nextDocID: base.nextDocID + 1,
	}
	if h.valIdx != nil {
		ns.val = h.valIdx.Root()
	}
	ns.docs = make([]DocInfo, 0, len(base.docs)+1)
	ns.docs = append(ns.docs, base.docs...)
	ns.docs = append(ns.docs, info)
	db.tip = ns
	// Make the load durable before anything references it: a later WAL
	// transaction must never depend on unflushed, unlogged load pages.
	if err := db.checkpointLocked(); err != nil {
		return 0, fmt.Errorf("storage: load %q: checkpoint: %w", name, err)
	}
	return doc, nil
}

// LoadXML parses an XML document from r and loads it.
func (db *DB) LoadXML(name string, r io.Reader) (xmltree.DocID, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return 0, err
	}
	return db.LoadDocument(name, root)
}

// loadHandles carries one load's in-place write handles.
type loadHandles struct {
	heap    *pagestore.Heap
	locator *btree.Tree
	tagIdx  *btree.Tree
	valIdx  *btree.Tree
}

// indexEntries accumulates the index pairs of one bulk load.
type indexEntries struct {
	loc, tag, val []btree.KV
}

// storeNode writes the record to the heap and either queues (bulk) or
// inserts (incremental) its index entries.
func (db *DB) storeNode(h *loadHandles, rec *NodeRecord, bulk *indexEntries) error {
	rid, err := h.heap.Insert(encodeRecordCompact(rec))
	if err != nil {
		return err
	}
	id := rec.ID()
	// Bulk loads queue the fixed-width posting value; bulkBuildIndexes
	// converts the sorted run into posting blocks in one pass. Only the
	// incremental path writes one-posting blocks directly.
	if bulk != nil {
		indexValue := postingValue(rec.Interval, rid)
		bulk.loc = append(bulk.loc, btree.KV{Key: locatorKey(id), Value: ridValue(rid)})
		bulk.tag = append(bulk.tag, btree.KV{Key: tagKey(rec.Tag, id), Value: indexValue})
		if h.valIdx != nil && rec.Content != "" && len(rec.Content) <= maxIndexedContent {
			bulk.val = append(bulk.val, btree.KV{Key: valueKey(rec.Tag, rec.Content, id), Value: indexValue})
		}
		return nil
	}
	indexValue := blockValue1(rec.Interval, rid)
	if err := h.locator.Insert(locatorKey(id), ridValue(rid)); err != nil {
		return fmt.Errorf("locator: %w", err)
	}
	if err := h.tagIdx.Insert(tagKey(rec.Tag, id), indexValue); err != nil {
		return fmt.Errorf("tag index: %w", err)
	}
	if h.valIdx != nil && rec.Content != "" && len(rec.Content) <= maxIndexedContent {
		if err := h.valIdx.Insert(valueKey(rec.Tag, rec.Content, id), indexValue); err != nil {
			return fmt.Errorf("value index: %w", err)
		}
	}
	return nil
}

// bulkBuildIndexes replaces the (empty) index trees with bulk-loaded
// ones. Locator keys are generated in document order and hence already
// sorted; tag and value keys are sorted here. The abandoned empty
// roots are a few dead pages, reclaimed at the next rebuild.
func (db *DB) bulkBuildIndexes(h *loadHandles, e *indexEntries) error {
	sortKVs(e.tag)
	sortKVs(e.val)
	// Pack the sorted posting runs into delta/varint blocks. The locator
	// keeps per-node cells: its values are bare RIDs and its range scans
	// address individual keys.
	maxCell := btree.MaxCellFor(db.st.PageSize())
	tag, err := blockKVs(e.tag, maxCell)
	if err != nil {
		return fmt.Errorf("tag index blocks: %w", err)
	}
	val, err := blockKVs(e.val, maxCell)
	if err != nil {
		return fmt.Errorf("value index blocks: %w", err)
	}
	if h.locator, err = btree.BulkLoad(db.st, e.loc); err != nil {
		return fmt.Errorf("locator bulk load: %w", err)
	}
	h.locator.SetMetrics(&db.idxMetrics)
	if h.tagIdx, err = btree.BulkLoad(db.st, tag); err != nil {
		return fmt.Errorf("tag index bulk load: %w", err)
	}
	h.tagIdx.SetMetrics(&db.idxMetrics)
	if h.valIdx != nil {
		if h.valIdx, err = btree.BulkLoad(db.st, val); err != nil {
			return fmt.Errorf("value index bulk load: %w", err)
		}
		h.valIdx.SetMetrics(&db.idxMetrics)
	}
	return nil
}

func sortKVs(kvs []btree.KV) {
	sort.Slice(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
}
