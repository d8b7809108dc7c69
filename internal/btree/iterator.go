package btree

import (
	"bytes"

	"timber/internal/pagestore"
)

// level is one internal node on the iterator's descent path: the page
// and the ordinal of the child the descent took.
type level struct {
	id  pagestore.PageID
	idx int
}

// Iterator walks leaf cells in ascending key order without decoding
// pages: it holds the current leaf pinned and cursors over the encoded
// cells in place. Obtain one with Tree.Seek, advance with Next, and
// Close it when done (Close is idempotent; an iterator that has run to
// exhaustion is already closed). Key and Value alias the pinned page
// and are valid only until the next Next/Close call — copy them to
// retain. Concurrent inserts invalidate iterators.
//
// Leaf transitions climb a stack of parent positions and descend into
// the next subtree instead of following the leaves' sibling links.
// Under copy-on-write a shadowed leaf's left sibling still carries a
// chain pointer to the superseded page, so the sibling links are not
// trustworthy on any tree that has ever been COW-updated; the parent
// stack only ever re-reads pages on the descent path, which are
// immutable for the snapshot the iterator was opened on.
type Iterator struct {
	t     *Tree
	stack []level
	page  *pagestore.Page
	data  []byte
	num   int // cells in the current leaf
	idx   int // current cell index
	off   int // byte offset of the current cell header
	key   []byte
	val   []byte
	err   error
	done  bool
}

// Seek positions an iterator at the first key >= key. An empty key
// seeks to the start of the tree. The descent and the leaf scan operate
// on encoded pages in place.
func (t *Tree) Seek(key []byte) *Iterator {
	it := &Iterator{t: t}
	id := t.root
	for {
		p, err := t.st.Fetch(id)
		if err != nil {
			it.fail(err)
			return it
		}
		t.m.visit()
		data := p.Data()
		if data[0]&flagLeaf != 0 {
			t.m.leaf()
			it.page = p
			it.data = data
			it.num = int(uint16(data[1]) | uint16(data[2])<<8)
			it.idx = 0
			it.off = nodeOverhead
			it.loadCell()
			// Skip cells below the seek key.
			for !it.done && bytes.Compare(it.key, key) < 0 {
				it.advance()
			}
			return it
		}
		ci, next := internalChildIndex(data, key)
		t.st.Unpin(p, false)
		it.stack = append(it.stack, level{id: id, idx: ci})
		id = next
	}
}

// loadCell parses the cell at the cursor into key/val, or moves to the
// next leaf (or completion) when the current leaf is exhausted. Leaves
// emptied by deletion are skipped.
func (it *Iterator) loadCell() {
	for it.idx >= it.num {
		it.release()
		if it.err != nil || !it.nextLeaf() {
			it.done = true
			return
		}
	}
	klen := int(uint16(it.data[it.off]) | uint16(it.data[it.off+1])<<8)
	vlen := int(uint16(it.data[it.off+2]) | uint16(it.data[it.off+3])<<8)
	body := it.off + 4
	it.key = it.data[body : body+klen]
	it.val = it.data[body+klen : body+klen+vlen]
}

// nextLeaf climbs the parent stack to the nearest ancestor with an
// unvisited child and descends to the leftmost leaf of that subtree.
// It reports false (leaving the iterator unpinned) at the end of the
// tree or on error.
func (it *Iterator) nextLeaf() bool {
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		p, err := it.t.st.Fetch(top.id)
		if err != nil {
			it.fail(err)
			return false
		}
		it.t.m.visit()
		data := p.Data()
		if top.idx+1 >= internalNumChildren(data) {
			it.t.st.Unpin(p, false)
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		top.idx++
		id := internalChildAt(data, top.idx)
		it.t.st.Unpin(p, false)
		// Descend along leftmost children to the subtree's first leaf.
		for {
			cp, err := it.t.st.Fetch(id)
			if err != nil {
				it.fail(err)
				return false
			}
			it.t.m.visit()
			cdata := cp.Data()
			if cdata[0]&flagLeaf != 0 {
				it.t.m.leaf()
				it.page = cp
				it.data = cdata
				it.num = int(uint16(cdata[1]) | uint16(cdata[2])<<8)
				it.idx = 0
				it.off = nodeOverhead
				return true
			}
			it.stack = append(it.stack, level{id: id, idx: 0})
			next := internalChildAt(cdata, 0)
			it.t.st.Unpin(cp, false)
			id = next
		}
	}
	return false
}

// advance moves the cursor one cell forward and loads it.
func (it *Iterator) advance() {
	it.off += 4 + len(it.key) + len(it.val)
	it.idx++
	it.loadCell()
}

func (it *Iterator) fail(err error) {
	it.err = err
	it.done = true
	it.release()
}

// release drops the pinned page, folding a pin-accounting fault into
// the iterator's sticky error instead of swallowing it (or panicking
// mid-scan the way Store.Unpin would).
func (it *Iterator) release() {
	if it.page == nil {
		return
	}
	if rerr := it.t.st.Release(it.page, false); rerr != nil && it.err == nil {
		it.err = rerr
	}
	it.page = nil
}

// Valid reports whether the iterator is positioned on a cell.
func (it *Iterator) Valid() bool { return !it.done && it.err == nil }

// Err returns the first error the iterator encountered, if any.
func (it *Iterator) Err() error { return it.err }

// Key returns the current cell's key, aliasing the pinned page; valid
// until the next Next or Close.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current cell's value, aliasing the pinned page;
// valid until the next Next or Close.
func (it *Iterator) Value() []byte { return it.val }

// Next advances to the following cell.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.advance()
}

// PeekNextKey returns the key of the cell after the current one within
// the same leaf, without moving the iterator and without any page
// fetch. It reports false when the iterator is not on a cell or the
// current cell is the leaf's last — callers that need cross-leaf
// lookahead must fall back to decoding the current cell. The returned
// slice aliases the pinned page and is valid only until the next
// Next/Close.
func (it *Iterator) PeekNextKey() ([]byte, bool) {
	if !it.Valid() || it.idx+1 >= it.num {
		return nil, false
	}
	off := it.off + 4 + len(it.key) + len(it.val)
	klen := int(uint16(it.data[off]) | uint16(it.data[off+1])<<8)
	body := off + 4
	return it.data[body : body+klen], true
}

// Close releases the iterator's pinned page and returns the iterator's
// first error — a scan fault or a pin-release fault, whichever came
// first. Iterators that ran to exhaustion are already closed; Close is
// safe to call regardless (idempotent), and callers that may stop
// early must call it (typically via defer) and check the error: a
// failed release means the buffer pool's pin accounting is off, which
// a later Truncate or DropCache would otherwise report far from the
// culprit.
func (it *Iterator) Close() error {
	it.release()
	it.done = true
	return it.err
}

// ScanPrefix calls fn for every cell whose key begins with prefix, in
// key order. It stops early (without error) if fn returns false. The
// slices passed to fn alias the page; fn must copy to retain them.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) error {
	it := t.Seek(prefix)
	for it.Valid() {
		if !bytes.HasPrefix(it.Key(), prefix) {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Close()
}

// ScanRange calls fn for every cell with lo <= key < hi (hi nil means no
// upper bound), in key order. It stops early if fn returns false. The
// slices passed to fn alias the page; fn must copy to retain them.
func (t *Tree) ScanRange(lo, hi []byte, fn func(key, value []byte) bool) error {
	it := t.Seek(lo)
	for it.Valid() {
		if hi != nil && bytes.Compare(it.Key(), hi) >= 0 {
			break
		}
		if !fn(it.Key(), it.Value()) {
			break
		}
		it.Next()
	}
	return it.Close()
}
