package storage

import (
	"fmt"
	"runtime"

	"timber/internal/pagestore"
)

// Spool is the one scratch page region: every temporary collection a
// query writes through the buffer pool — the streaming executor's
// sorted GROUPBY runs and the result trees SpillTrees writes and
// reads back — is a run in a spool. The spilled pages compete with
// the base data for buffer-pool capacity — that is the TIMBER cost
// model — but they are no part of any committed state: they are
// scratch pages (pagestore.NewScratchHeap), written back only when the
// pool evicts them, never by a checkpoint's flush, so a run may be
// half-written while a checkpoint runs beside it.
//
// Spools allocate from the store's free list like any writer, so any
// number of spools, ingest transactions and readers can be active at
// once; Close returns every run's pages to the allocator. Close every
// run cursor first: if freeing fails (a cursor still pins a page),
// Close reports the error and hands the pages to the database's
// reclamation retry set, which frees them on the next pass (the next
// Snapshot.Close or commit). A spool that is garbage-collected without
// Close is self-healing: a finalizer frees its pages and counts the
// leak in spool_runs_leaked, so a cancellation path that drops its
// spool shows up in metrics instead of as unbounded file growth.
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

// SpoolRun is one append-only run of records inside a spool. Appends
// go through one pagestore.Appender, which keeps the run's tail page
// pinned while it fills; Open and the spool's Close release it.
type SpoolRun struct {
	sp   *Spool
	heap *pagestore.Heap
	app  *pagestore.Appender
}

// NewRun starts a fresh run.
func (s *Spool) NewRun() (*SpoolRun, error) {
	if s.closed {
		return nil, fmt.Errorf("storage: spool is closed")
	}
	h, err := pagestore.NewScratchHeap(s.db.st)
	if err != nil {
		return nil, err
	}
	h.Track()
	s.db.ing.spoolRuns.Add(1)
	r := &SpoolRun{sp: s, heap: h, app: h.Appender()}
	s.runs = append(s.runs, r)
	return r, nil
}

// Append writes one record to the run.
func (r *SpoolRun) Append(rec []byte) error {
	_, err := r.app.Append(rec)
	return err
}

// Open ends the run's appends and returns a cursor over its records in
// write order, holding one pinned page at a time. Close every cursor
// before closing the spool.
func (r *SpoolRun) Open() *pagestore.HeapCursor {
	r.app.Close()
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
		r.app.Close()
		pages = append(pages, r.heap.FirstPage())
		pages = append(pages, r.heap.TakeTracked()...)
	}
	s.runs = nil
	if len(pages) == 0 {
		return nil
	}
	if err := s.db.st.FreePages(pages); err != nil {
		s.db.pinMu.Lock()
		s.db.retired = append(s.db.retired, retiredSet{pages: pages, scratch: true})
		s.db.pinMu.Unlock()
		return fmt.Errorf("storage: spool release: %w", err)
	}
	s.db.ing.spoolPagesFreed.Add(uint64(len(pages)))
	return nil
}
