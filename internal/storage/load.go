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
// place (the first document bulk-loads the trees bottom-up; later ones
// merge their sorted runs in with one descent per touched leaf) and
// therefore requires exclusive access — no snapshot, spool or
// concurrent writer — and is not crash-safe while running (a crash
// mid-load means rebuilding the database from sources). It checkpoints
// on entry and exit, so it composes correctly with durable ingest
// before and after. For online, crash-safe, concurrent-reader-safe
// ingest use InsertDocument.
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
	catalog := db.tree(base.catalog)
	locator := db.tree(base.locator)
	tagIdx := db.tree(base.tag)
	var valIdx *btree.Tree
	if base.hasVal {
		valIdx = db.tree(base.val)
	}

	e, err := storeDocument(heap, root, base.hasVal)
	if err == nil {
		err = e.pack(btree.MaxCellFor(db.st.PageSize()))
	}
	if err == nil {
		if len(base.docs) == 0 {
			locator, tagIdx, valIdx, err = db.bulkBuildIndexes(e, valIdx != nil)
		} else {
			err = e.mergeInto(locator, tagIdx, valIdx)
		}
	}
	if err != nil {
		return 0, fmt.Errorf("storage: load %q: %w", name, err)
	}

	info := DocInfo{ID: doc, Name: name, RootStart: root.Interval.Start, NodeCount: uint64(len(e.loc))}
	if err := catalog.Insert(catalogKey(doc), encodeDocInfo(info)); err != nil {
		return 0, fmt.Errorf("storage: load %q: catalog: %w", name, err)
	}

	ns := &snapState{
		epoch:     base.epoch + 1,
		heapFirst: heap.FirstPage(),
		heapLast:  heap.LastPage(),
		catalog:   catalog.Root(),
		locator:   locator.Root(),
		tag:       tagIdx.Root(),
		hasVal:    base.hasVal,
		nextDocID: base.nextDocID + 1,
	}
	if valIdx != nil {
		ns.val = valIdx.Root()
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

// indexEntries accumulates one document's index pairs, one locator
// entry per node. storeDocument queues them with fixed-width posting
// values; pack turns the tag and value runs into posting blocks.
type indexEntries struct {
	loc, tag, val []btree.KV
}

// storeDocument walks the tree once in document order: it appends each
// node's record to the heap, encoded into one reused buffer, and
// queues its index entries (value entries only when withVal).
func storeDocument(heap *pagestore.Heap, root *xmltree.Node, withVal bool) (*indexEntries, error) {
	e := &indexEntries{}
	app := heap.Appender()
	defer app.Close()
	var buf []byte
	var err error
	root.Walk(func(n *xmltree.Node) bool {
		buf = appendNodeRecord(buf[:0], n)
		var rid pagestore.RID
		if rid, err = app.Append(buf); err != nil {
			return false
		}
		id := n.Interval.ID()
		posting := postingValue(n.Interval, rid)
		e.loc = append(e.loc, btree.KV{Key: locatorKey(id), Value: ridValue(rid)})
		e.tag = append(e.tag, btree.KV{Key: tagKey(n.Tag, id), Value: posting})
		if withVal && n.Content != "" && len(n.Content) <= maxIndexedContent {
			e.val = append(e.val, btree.KV{Key: valueKey(n.Tag, n.Content, id), Value: posting})
		}
		return true
	})
	return e, err
}

// pack sorts the queued runs and packs the tag and value runs into
// posting blocks, which therefore never span documents. Locator keys
// come out of the document-order walk already sorted, and the locator
// keeps per-node cells: its values are bare RIDs and its range scans
// address individual keys.
func (e *indexEntries) pack(maxCell int) error {
	sortKVs(e.tag)
	sortKVs(e.val)
	var err error
	if e.tag, err = blockKVs(e.tag, maxCell); err != nil {
		return fmt.Errorf("tag index blocks: %w", err)
	}
	if e.val, err = blockKVs(e.val, maxCell); err != nil {
		return fmt.Errorf("value index blocks: %w", err)
	}
	return nil
}

// sortedInserter is an index tree a packed document merges into: the
// in-place *btree.Tree of an offline load or the *btree.COW of an
// online ingest.
type sortedInserter interface {
	InsertSorted(kvs []btree.KV) error
}

// mergeInto merges the packed runs into the index trees, one sorted
// batch per tree. valIdx is only touched when there are value entries,
// which storeDocument queues only for a database with a value index.
func (e *indexEntries) mergeInto(locator, tagIdx, valIdx sortedInserter) error {
	if err := locator.InsertSorted(e.loc); err != nil {
		return fmt.Errorf("locator: %w", err)
	}
	if err := tagIdx.InsertSorted(e.tag); err != nil {
		return fmt.Errorf("tag index: %w", err)
	}
	if len(e.val) > 0 {
		if err := valIdx.InsertSorted(e.val); err != nil {
			return fmt.Errorf("value index: %w", err)
		}
	}
	return nil
}

// bulkBuildIndexes builds the first document's index trees bottom-up
// from its packed runs, replacing the empty ones. The abandoned empty
// roots are a few dead pages, reclaimed at the next rebuild.
func (db *DB) bulkBuildIndexes(e *indexEntries, withVal bool) (locator, tagIdx, valIdx *btree.Tree, err error) {
	if locator, err = btree.BulkLoad(db.st, e.loc); err != nil {
		return nil, nil, nil, fmt.Errorf("locator bulk load: %w", err)
	}
	locator.SetMetrics(&db.idxMetrics)
	if tagIdx, err = btree.BulkLoad(db.st, e.tag); err != nil {
		return nil, nil, nil, fmt.Errorf("tag index bulk load: %w", err)
	}
	tagIdx.SetMetrics(&db.idxMetrics)
	if withVal {
		if valIdx, err = btree.BulkLoad(db.st, e.val); err != nil {
			return nil, nil, nil, fmt.Errorf("value index bulk load: %w", err)
		}
		valIdx.SetMetrics(&db.idxMetrics)
	}
	return locator, tagIdx, valIdx, nil
}

func sortKVs(kvs []btree.KV) {
	sort.Slice(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
}
