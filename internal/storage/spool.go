package storage

import (
	"fmt"
	"runtime"

	"timber/internal/pagestore"
)

// Spool is a temporary page region for operator spill: a blocking
// operator (the streaming executor's sort-based GROUPBY, duplicate
// elimination over huge inputs) that exceeds its memory budget writes
// sorted runs of encoded rows through the buffer pool and merges them
// back with cursors. The spilled pages compete with the base data for
// buffer-pool capacity — that is the TIMBER cost model.
//
// Spools allocate from the store's free list like any writer, so any
// number of spools, ingest transactions and readers can be active at
// once; Close returns every run's pages to the allocator. Close every
// run cursor first — freeing pinned pages fails and leaves the batch
// for the next reclamation pass. A spool that is garbage-collected
// without Close is self-healing: a finalizer frees its pages and
// counts the leak in spool_runs_leaked, so a cancellation path that
// drops its spool shows up in metrics instead of as unbounded file
// growth.
type Spool struct {
	db     *DB
	closed bool
	runs   []*SpoolRun
}

// NewSpool starts a spill region. Spools are scratch space, not part of
// the snapshot's state: their pages come from the database's allocator.
func (sn *Snapshot) NewSpool() *Spool {
	db := sn.db
	sp := &Spool{db: db}
	runtime.SetFinalizer(sp, func(leaked *Spool) {
		if !leaked.closed {
			db.ing.spoolRunsLeaked.Add(1)
			leaked.Close()
		}
	})
	return sp
}

// SpoolRun is one append-only run of records inside a spool.
type SpoolRun struct {
	sp   *Spool
	heap *pagestore.Heap
}

// NewRun starts a fresh run.
func (s *Spool) NewRun() (*SpoolRun, error) {
	if s.closed {
		return nil, fmt.Errorf("storage: spool is closed")
	}
	h, err := pagestore.NewHeap(s.db.st)
	if err != nil {
		return nil, err
	}
	// Sort runs hold varint-encoded rows, written once and merged once —
	// codec-exempt for the same reason as the record heap.
	h.SetRaw()
	h.Track()
	s.db.ing.spoolRuns.Add(1)
	r := &SpoolRun{sp: s, heap: h}
	s.runs = append(s.runs, r)
	return r, nil
}

// Append writes one record to the run.
func (r *SpoolRun) Append(rec []byte) error {
	_, err := r.heap.Insert(rec)
	return err
}

// Open returns a cursor over the run's records in write order, holding
// one pinned page at a time. Close every cursor before closing the
// spool.
func (r *SpoolRun) Open() *pagestore.HeapCursor {
	return pagestore.NewHeapCursor(r.sp.db.st, r.heap.FirstPage())
}

// Close returns every run's pages to the allocator. Idempotent.
func (s *Spool) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	runtime.SetFinalizer(s, nil)
	var pages []pagestore.PageID
	for _, r := range s.runs {
		pages = append(pages, r.heap.FirstPage())
		pages = append(pages, r.heap.TakeTracked()...)
	}
	s.runs = nil
	if len(pages) == 0 {
		return nil
	}
	if err := s.db.st.FreePages(pages); err != nil {
		return fmt.Errorf("storage: spool release: %w", err)
	}
	s.db.ing.spoolPagesFreed.Add(uint64(len(pages)))
	return nil
}
