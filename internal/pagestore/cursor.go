package pagestore

// HeapCursor is the heap's sequential read: a pull-style reader over
// its record chain that yields records one at a time in (page, slot)
// order, holding only the current page pinned (one fetch per page).
// Blocking operators that merge several spilled runs need this shape —
// k cursors advance independently, one pinned page each.
type HeapCursor struct {
	st   *Store
	page *Page
	sp   SlottedPage
	slot int
	next PageID
	err  error
	done bool
}

// NewHeapCursor opens a cursor at the start of the heap rooted at
// first (Heap.FirstPage).
func NewHeapCursor(st *Store, first PageID) *HeapCursor {
	return &HeapCursor{st: st, next: first, slot: -1}
}

// Next returns the next live record, or ok=false at the end of the
// chain (or on error — check Err). The returned slice aliases the
// pinned page and is valid only until the following Next or Close.
func (c *HeapCursor) Next() (rec []byte, ok bool) {
	if c.done || c.err != nil {
		return nil, false
	}
	for {
		if c.page == nil {
			if c.next == InvalidPage {
				c.done = true
				return nil, false
			}
			p, err := c.st.Fetch(c.next)
			if err != nil {
				c.err = err
				c.done = true
				return nil, false
			}
			c.page = p
			c.sp = ViewSlotted(p)
			c.slot = -1
			c.next = c.sp.Next()
		}
		c.slot++
		if c.slot >= c.sp.NumSlots() {
			if err := c.st.Release(c.page, false); err != nil && c.err == nil {
				c.err = err
			}
			c.page = nil
			continue
		}
		if !c.sp.Live(Slot(c.slot)) {
			continue
		}
		rec, err := c.sp.Read(Slot(c.slot))
		if err != nil {
			c.err = err
			c.done = true
			return nil, false
		}
		return rec, true
	}
}

// Err reports the first error the cursor hit, if any.
func (c *HeapCursor) Err() error { return c.err }

// Close releases the cursor's pinned page and returns the cursor's
// first error, including a pin-release fault. Idempotent.
func (c *HeapCursor) Close() error {
	if c.page != nil {
		if err := c.st.Release(c.page, false); err != nil && c.err == nil {
			c.err = err
		}
		c.page = nil
	}
	c.done = true
	return c.err
}
