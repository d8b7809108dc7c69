package storage

import (
	"errors"
	"fmt"
	"time"

	"timber/internal/btree"
	"timber/internal/obs"
	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// The online ingest path. InsertDocument and DeleteDocument are
// crash-safe whole-document transactions that run concurrently with
// any number of snapshot readers:
//
//  1. Build (writeMu held): every mutation lands in FRESH pages. The
//     heap tail is cut — the current insertion page is sealed and a new
//     one allocated, unlinked — and the four B+trees are updated
//     copy-on-write, so no page any published state references is
//     touched.
//  2. Log (writeMu held): each fresh page's image, the single
//     seal→fresh heap link, and the new metadata are appended to the
//     WAL, followed by a commit record. The in-pool link is applied and
//     the writer-visible tip advances.
//  3. Finish (writeMu released): the WAL is fsynced per the sync
//     policy, the state is published to readers, and the superseded
//     pages are retired for epoch- and durability-gated reuse.
//
// Because step 1 only creates pages and step 2's link touches one word
// of a sealed page, a crash at any byte leaves every committed state
// intact: recovery replays complete WAL transactions and discards the
// torn tail.

// txn accumulates one ingest transaction's page effects.
type txn struct {
	state *snapState         // the state being built
	pages []pagestore.PageID // fresh pages to log (heap + COW trees)
	freed []pagestore.PageID // superseded pages to retire after commit
	link  *[2]pagestore.PageID
	// committed flips once the WAL commit record is appended: from then
	// on the fresh pages are owned by the log and must never be freed by
	// an abort.
	committed bool
}

// ErrDuplicateDocument is returned by InsertDocument for a name the
// catalog already holds.
var ErrDuplicateDocument = errors.New("storage: document name already exists")

// InsertDocument durably adds a document: the tree is numbered with the
// next document ID, every node is stored (heap record, locator entry,
// tag posting, value posting), and the commit is made durable per
// policy before the call returns. The tree is numbered in place, as
// with LoadDocument. Concurrent snapshots are unaffected; the document
// is visible to snapshots taken after the call returns.
func (db *DB) InsertDocument(name string, root *xmltree.Node, policy SyncPolicy) (DocInfo, error) {
	pol := db.policy(policy)
	start := time.Now()
	walBase := db.WALStats().AppendedBytes
	db.writeMu.Lock()
	db.journal.Emit(obs.Event{Type: obs.EvTxnBegin, Epoch: db.tip.epoch, Label: "insert:" + name})
	t, info, err := db.buildInsert(name, root)
	if err == nil {
		err = db.commitLocked(t)
	}
	if err != nil {
		db.abortLocked(t)
		db.writeMu.Unlock()
		db.journal.Emit(obs.Event{Type: obs.EvTxnAbort, Label: "insert:" + name, Err: err.Error()})
		return DocInfo{}, fmt.Errorf("storage: insert %q: %w", name, err)
	}
	seq := db.seq
	db.writeMu.Unlock()
	if err := db.finishCommit(t.state, seq, pol, t.freed); err != nil {
		db.journal.Emit(obs.Event{Type: obs.EvTxnAbort, WALSeq: seq, Label: "insert:" + name, Err: err.Error()})
		return DocInfo{}, fmt.Errorf("storage: insert %q: %w", name, err)
	}
	db.ing.inserted.Add(1)
	db.journal.Emit(obs.Event{
		Type:   obs.EvTxnCommit,
		WALSeq: seq,
		Epoch:  t.state.epoch,
		Count:  int64(len(t.pages)),
		Bytes:  int64(db.WALStats().AppendedBytes - walBase),
		DurNS:  time.Since(start).Nanoseconds(),
		Label:  "insert:" + name,
	})
	return info, nil
}

// DeleteDocument durably removes the named document from the catalog
// and every index. Heap records become unreferenced but their pages are
// not rewritten (reclaiming record space needs a vacuum, which the
// format supports but this build does not implement); the dominant
// index space is reclaimed through the COW deletes. Document IDs are
// never reused.
func (db *DB) DeleteDocument(name string, policy SyncPolicy) error {
	pol := db.policy(policy)
	start := time.Now()
	walBase := db.WALStats().AppendedBytes
	db.writeMu.Lock()
	db.journal.Emit(obs.Event{Type: obs.EvTxnBegin, Epoch: db.tip.epoch, Label: "delete:" + name})
	t, err := db.buildDelete(name)
	if err == nil {
		err = db.commitLocked(t)
	}
	if err != nil {
		db.abortLocked(t)
		db.writeMu.Unlock()
		db.journal.Emit(obs.Event{Type: obs.EvTxnAbort, Label: "delete:" + name, Err: err.Error()})
		return fmt.Errorf("storage: delete %q: %w", name, err)
	}
	seq := db.seq
	db.writeMu.Unlock()
	if err := db.finishCommit(t.state, seq, pol, t.freed); err != nil {
		db.journal.Emit(obs.Event{Type: obs.EvTxnAbort, WALSeq: seq, Label: "delete:" + name, Err: err.Error()})
		return fmt.Errorf("storage: delete %q: %w", name, err)
	}
	db.ing.deleted.Add(1)
	db.journal.Emit(obs.Event{
		Type:   obs.EvTxnCommit,
		WALSeq: seq,
		Epoch:  t.state.epoch,
		Count:  int64(len(t.pages)),
		Bytes:  int64(db.WALStats().AppendedBytes - walBase),
		DurNS:  time.Since(start).Nanoseconds(),
		Label:  "delete:" + name,
	})
	return nil
}

// writeHandles is the set of COW/heap handles one transaction builds
// into.
type writeHandles struct {
	heap    *pagestore.Heap
	catalog *btree.COW
	locator *btree.COW
	tagIdx  *btree.COW
	valIdx  *btree.COW // nil without a value index
	sealed  pagestore.PageID
	fresh   pagestore.PageID
}

// beginTxn opens fresh-page handles over the tip state. The heap tail
// is cut immediately: the old insertion page is sealed (still linked
// from its predecessor, unchanged) and appends go to a fresh unlinked
// page, so a crash before commit leaves the committed chain ending at
// the sealed page exactly as before.
func (db *DB) beginTxn() (*writeHandles, error) {
	base := db.tip
	h := &writeHandles{}
	heap := pagestore.OpenHeapAt(db.st, base.heapFirst, base.heapLast)
	heap.Track()
	sealed, fresh, err := heap.CutTail()
	if err != nil {
		return nil, err
	}
	h.heap, h.sealed, h.fresh = heap, sealed, fresh
	h.catalog = db.tree(base.catalog).BeginCOW()
	h.locator = db.tree(base.locator).BeginCOW()
	h.tagIdx = db.tree(base.tag).BeginCOW()
	if base.hasVal {
		h.valIdx = db.tree(base.val).BeginCOW()
	}
	return h, nil
}

// finishTxn assembles the txn record: the successor state, the fresh
// pages to log, the superseded pages to retire.
func (db *DB) finishTxn(h *writeHandles, mutate func(s *snapState)) *txn {
	base := db.tip
	ns := &snapState{
		epoch:     base.epoch + 1,
		heapFirst: h.heap.FirstPage(),
		heapLast:  h.heap.LastPage(),
		catalog:   h.catalog.Root(),
		locator:   h.locator.Root(),
		tag:       h.tagIdx.Root(),
		hasVal:    base.hasVal,
		nextDocID: base.nextDocID,
	}
	if h.valIdx != nil {
		ns.val = h.valIdx.Root()
	}
	mutate(ns)

	t := &txn{state: ns}
	t.pages = append(t.pages, h.heap.TakeTracked()...)
	t.pages = append(t.pages, h.catalog.Allocated()...)
	t.pages = append(t.pages, h.locator.Allocated()...)
	t.pages = append(t.pages, h.tagIdx.Allocated()...)
	t.freed = append(t.freed, h.catalog.Freed()...)
	t.freed = append(t.freed, h.locator.Freed()...)
	t.freed = append(t.freed, h.tagIdx.Freed()...)
	if h.valIdx != nil {
		t.pages = append(t.pages, h.valIdx.Allocated()...)
		t.freed = append(t.freed, h.valIdx.Freed()...)
	}
	t.link = &[2]pagestore.PageID{h.sealed, h.fresh}
	return t
}

// buildInsert stores the document into fresh pages and returns the
// prepared transaction. Caller holds writeMu.
func (db *DB) buildInsert(name string, root *xmltree.Node) (*txn, DocInfo, error) {
	base := db.tip
	if _, dup := findDoc(base.docs, name); dup {
		return nil, DocInfo{}, ErrDuplicateDocument
	}
	h, err := db.beginTxn()
	if err != nil {
		return nil, DocInfo{}, err
	}
	// Even a failed build must surface its allocated pages for abort.
	fail := func(err error) (*txn, DocInfo, error) {
		return db.finishTxn(h, func(*snapState) {}), DocInfo{}, err
	}

	doc := xmltree.DocID(base.nextDocID)
	xmltree.Number(root, doc)

	e, err := storeDocument(h.heap, root, base.hasVal)
	if err == nil {
		err = e.pack(btree.MaxCellFor(db.st.PageSize()))
	}
	if err == nil {
		err = e.mergeInto(h.locator, h.tagIdx, h.valIdx)
	}
	if err != nil {
		return fail(err)
	}
	info := DocInfo{ID: doc, Name: name, RootStart: root.Interval.Start, NodeCount: uint64(len(e.loc))}
	if err := h.catalog.Insert(catalogKey(doc), encodeDocInfo(info)); err != nil {
		return fail(fmt.Errorf("catalog: %w", err))
	}
	t := db.finishTxn(h, func(s *snapState) {
		s.nextDocID = base.nextDocID + 1
		s.docs = make([]DocInfo, 0, len(base.docs)+1)
		s.docs = append(s.docs, base.docs...)
		s.docs = append(s.docs, info)
	})
	return t, info, nil
}

// buildDelete removes every index entry of the named document into
// fresh pages. Caller holds writeMu.
func (db *DB) buildDelete(name string) (*txn, error) {
	base := db.tip
	info, ok := findDoc(base.docs, name)
	if !ok {
		return nil, fmt.Errorf("storage: unknown document %q", name)
	}
	doc := uint32(info.ID)

	// Collect the document's locator keys and the distinct (tag) and
	// (tag, content) pairs its records index under, reading from the
	// base state before any COW begins.
	locatorT := db.tree(base.locator)
	heap := pagestore.OpenHeapAt(db.st, base.heapFirst, base.heapLast)
	var locKeys [][]byte
	tags := map[string]bool{}
	values := map[[2]string]bool{}
	var inner error
	lo := locatorKey(xmltree.NodeID{Doc: info.ID, Start: 0})
	hi := locatorKey(xmltree.NodeID{Doc: info.ID + 1, Start: 0})
	err := locatorT.ScanRange(lo, hi, func(k, v []byte) bool {
		locKeys = append(locKeys, append([]byte(nil), k...))
		rid, err := decodeRID(v)
		if err != nil {
			inner = err
			return false
		}
		if err := heap.View(rid, func(b []byte) error {
			rec, err := decodeRecordCompact(b)
			if err != nil {
				return err
			}
			tags[rec.Tag] = true
			if rec.Content != "" && len(rec.Content) <= maxIndexedContent {
				values[[2]string{rec.Tag, rec.Content}] = true
			}
			return nil
		}); err != nil {
			inner = err
			return false
		}
		return true
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return nil, err
	}

	// Resolve the exact tag/value index keys. Posting blocks never span
	// documents, so every cell under (prefix, doc) belongs wholly to
	// this document.
	tagT, valT := db.tree(base.tag), (*btree.Tree)(nil)
	if base.hasVal {
		valT = db.tree(base.val)
	}
	var tagKeys, valKeys [][]byte
	for tag := range tags {
		p := append(tagPrefix(tag), be32(doc)...)
		if err := tagT.ScanPrefix(p, func(k, _ []byte) bool {
			tagKeys = append(tagKeys, append([]byte(nil), k...))
			return true
		}); err != nil {
			return nil, err
		}
	}
	if valT != nil {
		for tv := range values {
			p := append(valuePrefix(tv[0], tv[1]), be32(doc)...)
			if err := valT.ScanPrefix(p, func(k, _ []byte) bool {
				valKeys = append(valKeys, append([]byte(nil), k...))
				return true
			}); err != nil {
				return nil, err
			}
		}
	}

	h, err := db.beginTxn()
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*txn, error) {
		return db.finishTxn(h, func(*snapState) {}), err
	}
	for _, k := range locKeys {
		if err := h.locator.Delete(k); err != nil {
			return fail(fmt.Errorf("locator: %w", err))
		}
	}
	for _, k := range tagKeys {
		if err := h.tagIdx.Delete(k); err != nil {
			return fail(fmt.Errorf("tag index: %w", err))
		}
	}
	for _, k := range valKeys {
		if err := h.valIdx.Delete(k); err != nil {
			return fail(fmt.Errorf("value index: %w", err))
		}
	}
	if err := h.catalog.Delete(catalogKey(info.ID)); err != nil {
		return fail(fmt.Errorf("catalog: %w", err))
	}
	t := db.finishTxn(h, func(s *snapState) {
		s.docs = make([]DocInfo, 0, len(base.docs)-1)
		for _, d := range base.docs {
			if d.ID != info.ID {
				s.docs = append(s.docs, d)
			}
		}
	})
	return t, nil
}

// commitLocked logs the transaction and advances the writer tip.
// Caller holds writeMu. On return with nil error the transaction is
// committed in the WAL (not yet necessarily fsynced) and tip/seq point
// at the new state.
func (db *DB) commitLocked(t *txn) error {
	seq := db.seq + 1
	if db.wal != nil {
		for _, id := range t.pages {
			img, err := db.st.SlotImage(id)
			if err != nil {
				return err
			}
			if err := db.wal.AppendPage(id, img); err != nil {
				return err
			}
		}
		if t.link != nil {
			if err := db.wal.AppendLink(t.link[0], t.link[1]); err != nil {
				return err
			}
		}
		// The logged metadata's numPages must cover every logged page so
		// recovery's SetNumPages keeps them.
		blob := encodeMeta(t.state, db.st.SlotSize(), db.st.NumPages())
		if err := db.wal.AppendMeta(blob); err != nil {
			return err
		}
		if err := db.wal.Commit(seq); err != nil {
			return err
		}
	}
	t.committed = true
	// Apply the heap link in the pool. This is the one committed-state
	// mutation of a shared page; it happens after the commit record, so
	// a failure here cannot be rolled back — the pool and the log would
	// disagree. Treat it as fatal: the tip does not advance and the
	// database needs a reopen (which replays the same link from the
	// WAL).
	if t.link != nil {
		p, err := db.st.Fetch(t.link[0])
		if err != nil {
			return fmt.Errorf("commit link apply (database needs reopen): %w", err)
		}
		pagestore.ViewSlotted(p).SetNext(t.link[1])
		db.st.Unpin(p, true)
	}
	db.seq = seq
	db.commitSeq.Store(seq)
	db.tip = t.state
	db.ing.txnPages.Add(uint64(len(t.pages)))
	return nil
}

// abortLocked releases a failed transaction's fresh pages. Caller
// holds writeMu. Once the WAL commit record is written the pages
// belong to the log and are never freed here; orphan WAL frames from
// aborted (uncommitted) transactions are skipped by recovery.
func (db *DB) abortLocked(t *txn) {
	if t == nil || t.committed || len(t.pages) == 0 {
		return
	}
	// Best-effort: a page still pinned (mid-build failure) keeps the
	// whole batch allocated; it is dead space until the next reopen.
	_ = db.st.FreePages(t.pages)
}

// finishCommit completes a commit after writeMu is released: per-policy
// WAL fsync, publication to readers, retirement of superseded pages,
// and a checkpoint when the log has grown past the configured bound.
func (db *DB) finishCommit(ns *snapState, seq uint64, pol SyncPolicy, freed []pagestore.PageID) error {
	if db.wal != nil && pol != SyncNone {
		if err := db.wal.Sync(seq); err != nil {
			return err
		}
	}
	db.publish(ns)
	db.retire(ns.epoch, seq, freed)
	if db.wal != nil && db.wal.Size() >= db.checkpointBytes() {
		db.writeMu.Lock()
		// Re-check under the lock: a concurrent commit may have
		// checkpointed already.
		var err error
		if db.wal.Size() >= db.checkpointBytes() {
			err = db.checkpointLocked()
		}
		db.writeMu.Unlock()
		return err
	}
	return nil
}
