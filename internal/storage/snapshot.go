package storage

import (
	"math"
	"sync/atomic"

	"timber/internal/btree"
	"timber/internal/obs"
	"timber/internal/pagestore"
)

// Snapshot is a pinned, immutable view of the database: the state that
// was the published head when Snapshot() was called. Every read method
// on it sees exactly that state no matter how many documents are
// inserted or deleted concurrently — commits build fresh pages and the
// pin blocks reclamation of the old ones — so a streaming query that
// runs for seconds returns byte-identical results to one run against a
// quiesced database.
//
// Snapshot is the one read surface of query code: a query's entry
// point pins one and everything below it reads through it. Snapshots
// are cheap (a map increment and four tree handles; no I/O) but must be
// Closed: an open snapshot holds every page of its epoch on disk. Close
// is idempotent and safe to call from any goroutine.
//
// The read methods are safe for concurrent use: they hold no mutable
// state of their own, only immutable tree roots over the shared buffer
// pool, so the exchange's workers share one Snapshot. A TagCursor it
// opens belongs to one goroutine at a time.
type Snapshot struct {
	db       *DB
	s        *snapState
	heap     *pagestore.Heap
	catalogT *btree.Tree
	locator  *btree.Tree
	tagIdx   *btree.Tree
	valIdx   *btree.Tree // nil without a value index
	closed   atomic.Bool
}

// Snapshot pins the current head state and returns a read view of it.
func (db *DB) Snapshot() *Snapshot {
	// The head load must happen inside pinMu: commit publishes a new
	// head before retiring the old state's pages and reclaim takes
	// pinMu, so either this pin lands first (blocking reclamation of
	// the state it read) or it observes the new head.
	db.pinMu.Lock()
	s := db.head.Load()
	db.pins[s.epoch]++
	db.pinMu.Unlock()
	db.ing.snapshotsPinned.Add(1)

	sn := &Snapshot{db: db, s: s}
	sn.heap = pagestore.OpenHeapAt(db.st, s.heapFirst, s.heapLast)
	sn.catalogT = db.tree(s.catalog)
	sn.locator = db.tree(s.locator)
	sn.tagIdx = db.tree(s.tag)
	if s.hasVal {
		sn.valIdx = db.tree(s.val)
	}
	return sn
}

// Close releases the pin. Pages superseded while the snapshot was open
// become reclaimable once every snapshot of its epoch (and older) is
// closed.
func (sn *Snapshot) Close() error {
	if !sn.closed.CompareAndSwap(false, true) {
		return nil
	}
	db := sn.db
	db.ing.snapshotsPinned.Add(-1)
	db.pinMu.Lock()
	if n := db.pins[sn.s.epoch] - 1; n > 0 {
		db.pins[sn.s.epoch] = n
	} else {
		delete(db.pins, sn.s.epoch)
	}
	db.reclaimLocked()
	db.pinMu.Unlock()
	return nil
}

// Documents returns the snapshot's catalog in ID order.
func (sn *Snapshot) Documents() []DocInfo {
	out := make([]DocInfo, len(sn.s.docs))
	copy(out, sn.s.docs)
	return out
}

// HasValueIndex reports whether the (tag, content) value index exists.
func (sn *Snapshot) HasValueIndex() bool { return sn.valIdx != nil }

// retiredSet is a batch of pages superseded by one commit, waiting for
// reclamation.
type retiredSet struct {
	// epoch of the state whose commit freed the pages: any snapshot
	// pinning an OLDER epoch may still read them. A zero epoch/seq set
	// is a retry batch from a failed FreePages — immediately eligible.
	epoch uint64
	// seq of the committing transaction: the pages must not be reused
	// before this commit is WAL-durable, or a crash could recover to the
	// freeing state with its pages overwritten.
	seq   uint64
	pages []pagestore.PageID
	// scratch marks a spool's pages whose release failed (Spool.Close):
	// a retry batch counted in spool_pages_freed, not pages_reclaimed.
	scratch bool
}

// retire queues pages superseded by the commit that produced epoch
// (WAL sequence seq) and reclaims whatever has become eligible.
func (db *DB) retire(epoch, seq uint64, pages []pagestore.PageID) {
	if len(pages) == 0 {
		return
	}
	db.ing.pagesRetired.Add(uint64(len(pages)))
	db.journal.Emit(obs.Event{Type: obs.EvPagesRetired, Epoch: epoch, WALSeq: seq, Count: int64(len(pages))})
	db.pinMu.Lock()
	db.retired = append(db.retired, retiredSet{epoch: epoch, seq: seq, pages: pages})
	db.reclaimLocked()
	db.pinMu.Unlock()
}

// reclaim runs a reclamation pass.
func (db *DB) reclaim() {
	db.pinMu.Lock()
	db.reclaimLocked()
	db.pinMu.Unlock()
}

// reclaimLocked frees every retired set that (a) no open snapshot can
// still read — its epoch is at or below the oldest pinned epoch — and
// (b) is durability-safe to overwrite — the WAL fsync has covered the
// commit that freed it. Caller holds pinMu; FreePages takes the
// store's allocator lock inside it (that order is fixed — nothing
// takes pinMu while holding a store lock).
func (db *DB) reclaimLocked() {
	if len(db.retired) == 0 {
		return
	}
	minEpoch := uint64(math.MaxUint64)
	for e := range db.pins {
		if e < minEpoch {
			minEpoch = e
		}
	}
	var synced uint64 = math.MaxUint64
	if db.wal != nil {
		synced = db.wal.Synced()
	}
	keep := db.retired[:0]
	var freed int64
	for _, set := range db.retired {
		if set.epoch > minEpoch || set.seq > synced {
			keep = append(keep, set)
			continue
		}
		if err := db.st.FreePages(set.pages); err != nil {
			// A transiently pinned page (a still-draining cursor) makes
			// FreePages refuse the whole batch; retry on the next pass with
			// no epoch/seq gate, since both conditions were already met.
			keep = append(keep, retiredSet{pages: set.pages, scratch: set.scratch})
			continue
		}
		if set.scratch {
			db.ing.spoolPagesFreed.Add(uint64(len(set.pages)))
			continue
		}
		db.ing.pagesReclaimed.Add(uint64(len(set.pages)))
		freed += int64(len(set.pages))
	}
	db.retired = keep
	if freed > 0 {
		// One aggregate event per pass, not one per set — reclamation can
		// drain dozens of sets after a long-pinned snapshot closes.
		db.journal.Emit(obs.Event{Type: obs.EvPagesReclaimed, Count: freed})
	}
}
