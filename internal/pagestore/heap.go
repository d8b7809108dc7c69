package pagestore

import "fmt"

// Heap is an append-oriented record file over a chain of slotted pages.
// The data manager stores node records in heaps; record identifiers
// (RIDs) are stable for the life of the heap. A heap is identified by
// its first page, which the metadata manager persists.
type Heap struct {
	st    *Store
	first PageID
	last  PageID
	raw   bool
	// tracked, when tracking is on, accumulates every page the heap
	// allocates (chained tail pages, cut tails) so a transaction can
	// log their images and reclaim them on abort.
	tracking bool
	tracked  []PageID
}

// SetRaw excludes the heap's pages from the store's page codec: the
// insertion page and every page chained from now on are written raw.
// Record heaps hold payloads the upper layers already varint-encode,
// and their access pattern (random point reads during late
// materialization) makes per-fetch decompression the dominant cost —
// while fixed-size slots mean compressing them saves no disk space.
// Call it right after NewHeap/OpenHeap, before inserts.
func (h *Heap) SetRaw() {
	h.raw = true
	h.st.SetRawPage(h.last)
}

// NewHeap allocates a fresh heap in the store.
func NewHeap(st *Store) (*Heap, error) {
	p, err := st.Allocate()
	if err != nil {
		return nil, fmt.Errorf("pagestore: new heap: %w", err)
	}
	InitSlotted(p)
	st.Unpin(p, true)
	return &Heap{st: st, first: p.ID(), last: p.ID()}, nil
}

// OpenHeap reopens a heap whose first page is known, walking the chain
// to find the insertion point.
func OpenHeap(st *Store, first PageID) (*Heap, error) {
	last := first
	for {
		p, err := st.Fetch(last)
		if err != nil {
			return nil, fmt.Errorf("pagestore: open heap: %w", err)
		}
		next := ViewSlotted(p).Next()
		st.Unpin(p, false)
		if next == InvalidPage {
			break
		}
		last = next
	}
	return &Heap{st: st, first: first, last: last}, nil
}

// OpenHeapAt reopens a heap whose first and last pages are both known
// (from committed metadata), skipping OpenHeap's chain walk. The
// durable open path uses it: after a crash the chain's tail links may
// run past the committed state, so walking them would resurrect
// uncommitted pages.
func OpenHeapAt(st *Store, first, last PageID) *Heap {
	return &Heap{st: st, first: first, last: last}
}

// FirstPage returns the identifier of the heap's first page.
func (h *Heap) FirstPage() PageID { return h.first }

// LastPage returns the identifier of the heap's current insertion page.
func (h *Heap) LastPage() PageID { return h.last }

// Track makes the heap record every page it allocates from now on;
// TakeTracked drains the record. Ingest transactions use the pair to
// learn which pages need logging.
func (h *Heap) Track() {
	h.tracking = true
	h.tracked = h.tracked[:0]
}

// TakeTracked returns the pages allocated since Track and stops
// tracking.
func (h *Heap) TakeTracked() []PageID {
	h.tracking = false
	out := h.tracked
	h.tracked = nil
	return out
}

// CutTail seals the heap's current insertion page and starts a fresh
// one, returning the sealed page and the new tail. Unlike Insert's
// chaining, CutTail does NOT link the sealed page to the new one — the
// caller owns that link (an ingest transaction defers it until its WAL
// records are durable, so concurrent readers walking the committed
// chain never see uncommitted pages, and no committed page's bytes are
// touched while unpinned readers may hold it).
func (h *Heap) CutTail() (sealed, fresh PageID, err error) {
	np, err := h.st.Allocate()
	if err != nil {
		return InvalidPage, InvalidPage, fmt.Errorf("pagestore: cut tail: %w", err)
	}
	if h.raw {
		h.st.SetRawPage(np.ID())
	}
	InitSlotted(np)
	h.st.Unpin(np, true)
	sealed = h.last
	h.last = np.ID()
	if h.tracking {
		h.tracked = append(h.tracked, np.ID())
	}
	return sealed, h.last, nil
}

// Insert appends one record and returns its RID: the one-record form
// of Appender. Records larger than MaxRecord(pageSize) are rejected.
func (h *Heap) Insert(rec []byte) (RID, error) {
	a := h.Appender()
	defer a.Close()
	return a.Append(rec)
}

// Appender appends records to a heap's tail. It keeps the tail page
// pinned across appends and chains a fresh page when the tail is full,
// so filling a page costs one buffer-pool fetch instead of one per
// record. The records, RIDs and page chain are exactly those of the
// same sequence of Insert calls. Close releases the pinned tail; until
// then the heap must not be appended to any other way.
type Appender struct {
	h     *Heap
	page  *Page // pinned tail, nil before the first Append
	sp    SlottedPage
	dirty bool
}

// Appender starts appending at the heap's current tail. It pins
// nothing until the first Append.
func (h *Heap) Appender() *Appender { return &Appender{h: h} }

// Append writes rec to the tail and returns its RID. Records larger
// than MaxRecord(pageSize) are rejected without touching the heap.
func (a *Appender) Append(rec []byte) (RID, error) {
	h := a.h
	if len(rec) > MaxRecord(h.st.PageSize()) {
		return RID{}, fmt.Errorf("pagestore: record of %d bytes exceeds page capacity %d",
			len(rec), MaxRecord(h.st.PageSize()))
	}
	if a.page == nil {
		p, err := h.st.Fetch(h.last)
		if err != nil {
			return RID{}, err
		}
		a.page, a.sp, a.dirty = p, ViewSlotted(p), false
	}
	if slot, ok := a.sp.Insert(rec); ok {
		a.dirty = true
		return RID{Page: a.page.ID(), Slot: slot}, nil
	}
	// The tail is full: chain a new page.
	np, err := h.st.Allocate()
	if err != nil {
		return RID{}, err
	}
	if h.raw {
		h.st.SetRawPage(np.ID())
	}
	if h.tracking {
		h.tracked = append(h.tracked, np.ID())
	}
	nsp := InitSlotted(np)
	a.sp.SetNext(np.ID())
	h.st.Unpin(a.page, true)
	a.page, a.sp, a.dirty = np, nsp, true
	h.last = np.ID()
	slot, ok := nsp.Insert(rec)
	if !ok {
		return RID{}, fmt.Errorf("pagestore: record of %d bytes does not fit an empty page", len(rec))
	}
	return RID{Page: np.ID(), Slot: slot}, nil
}

// Close releases the pinned tail page. Idempotent.
func (a *Appender) Close() {
	if a.page != nil {
		a.h.st.Unpin(a.page, a.dirty)
		a.page = nil
	}
}

// Get copies out the record stored at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	p, err := h.st.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.st.Unpin(p, false)
	rec, err := ViewSlotted(p).Read(rid.Slot)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// View calls fn with the record bytes at rid while the page is pinned.
// fn must not retain the slice. View avoids Get's copy on hot paths.
func (h *Heap) View(rid RID, fn func(rec []byte) error) error {
	p, err := h.st.Fetch(rid.Page)
	if err != nil {
		return err
	}
	defer h.st.Unpin(p, false)
	rec, err := ViewSlotted(p).Read(rid.Slot)
	if err != nil {
		return err
	}
	return fn(rec)
}

// Pages walks the heap's page chain and returns its length. Size
// reporting only — it fetches every page in the chain.
func (h *Heap) Pages() (uint32, error) {
	var n uint32
	id := h.first
	for id != InvalidPage {
		p, err := h.st.Fetch(id)
		if err != nil {
			return n, err
		}
		next := ViewSlotted(p).Next()
		h.st.Unpin(p, false)
		n++
		id = next
	}
	return n, nil
}

// Scan visits every live record in the heap in (page, slot) order. The
// record slice passed to fn is only valid during the call. If fn returns
// an error the scan stops and returns it.
func (h *Heap) Scan(fn func(rid RID, rec []byte) error) error {
	id := h.first
	for id != InvalidPage {
		p, err := h.st.Fetch(id)
		if err != nil {
			return err
		}
		sp := ViewSlotted(p)
		for s := 0; s < sp.NumSlots(); s++ {
			if !sp.Live(Slot(s)) {
				continue
			}
			rec, err := sp.Read(Slot(s))
			if err != nil {
				h.st.Unpin(p, false)
				return err
			}
			if err := fn(RID{Page: id, Slot: Slot(s)}, rec); err != nil {
				h.st.Unpin(p, false)
				return err
			}
		}
		next := sp.Next()
		h.st.Unpin(p, false)
		id = next
	}
	return nil
}
