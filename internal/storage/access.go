package storage

import (
	"bytes"
	"errors"
	"fmt"

	"timber/internal/btree"
	"timber/internal/pagestore"
	"timber/internal/xmltree"
)

// ErrNoSuchNode is returned when a node ID does not resolve.
var ErrNoSuchNode = errors.New("storage: no such node")

// The read path. Every access primitive is a method on Snapshot — a
// pinned immutable view. A query's entry point pins one Snapshot and
// hands it down, so every read of the query sees one committed epoch.

// GetNode fetches the record for a node by identifier. It costs one
// locator descent plus one heap page fetch — the "data value look-up"
// whose count separates the paper's two evaluation plans.
func (sn *Snapshot) GetNode(id xmltree.NodeID) (*NodeRecord, error) {
	v, err := sn.locator.Get(locatorKey(id))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, id)
		}
		return nil, err
	}
	rid, err := decodeRID(v)
	if err != nil {
		return nil, err
	}
	return sn.GetNodeAt(rid)
}

// LocateRID resolves a node identifier to its physical record location
// through the locator index, without fetching the record itself.
func (sn *Snapshot) LocateRID(id xmltree.NodeID) (pagestore.RID, error) {
	v, err := sn.locator.Get(locatorKey(id))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return pagestore.RID{}, fmt.Errorf("%w: %v", ErrNoSuchNode, id)
		}
		return pagestore.RID{}, err
	}
	return decodeRID(v)
}

// GetNodeAt fetches a node record directly by its physical RID, skipping
// the locator. Postings carry RIDs so matched nodes can be populated
// this way.
func (sn *Snapshot) GetNodeAt(rid pagestore.RID) (*NodeRecord, error) {
	var rec *NodeRecord
	err := sn.heap.View(rid, func(b []byte) error {
		var err error
		rec, err = decodeRecordCompact(b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Content returns the stored content of a node identified by posting,
// using its RID. This is the narrow "populate only the grouping (and
// sorting) list values" access path of Sec. 5.3.
func (sn *Snapshot) Content(p Posting) (string, error) {
	rec, err := sn.GetNodeAt(p.RID)
	if err != nil {
		return "", err
	}
	return rec.Content, nil
}

// TagPostings returns the postings of every node with the given tag, in
// document order (doc, then start). This is the tag-name index access
// the paper's experiments use ("given a tag, we could efficiently list
// (by node identifier) all nodes with that tag").
func (sn *Snapshot) TagPostings(tag string) ([]Posting, error) {
	prefix := tagPrefix(tag)
	var out []Posting
	var inner error
	err := sn.tagIdx.ScanPrefix(prefix, func(k, v []byte) bool {
		out, inner = appendBlockPostings(out, k[len(k)-8:], v)
		return inner == nil
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	return out, nil
}

// TagPostings is the pin-per-call form of Snapshot.TagPostings.
//
// Deprecated: only the benchmark harness calls it; ROADMAP item 2(a)
// moves the harness onto a Snapshot and then deletes this method.
func (db *DB) TagPostings(tag string) ([]Posting, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return sn.TagPostings(tag)
}

// ValuePostings returns the postings of nodes with the given tag whose
// content equals content exactly, using the value index. It returns an
// error if the database was created without a value index or the content
// exceeds the indexable length.
func (sn *Snapshot) ValuePostings(tag, content string) ([]Posting, error) {
	if sn.valIdx == nil {
		return nil, errors.New("storage: no value index")
	}
	if len(content) > maxIndexedContent {
		return nil, fmt.Errorf("storage: content of %d bytes exceeds indexable length %d", len(content), maxIndexedContent)
	}
	prefix := valuePrefix(tag, content)
	var out []Posting
	var inner error
	err := sn.valIdx.ScanPrefix(prefix, func(k, v []byte) bool {
		out, inner = appendBlockPostings(out, k[len(k)-8:], v)
		return inner == nil
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	return out, nil
}

// ScanValueRange walks the value index's prefix tag\0 — every indexed
// content of tag's elements — and calls fn once per distinct content,
// in byte order (strings.Compare), with that content's postings in
// (doc, start) order. The postings slice is reused after fn returns.
// An error from fn stops the scan and is returned.
//
// The scan covers only what the value index holds: elements with empty
// content or content longer than maxIndexedContent are absent, and so
// is content containing NUL (the key separator, which would put it out
// of byte order). Without a value index the scan covers nothing and fn
// is never called.
func (sn *Snapshot) ScanValueRange(tag string, fn func(value string, ps []Posting) error) error {
	if sn.valIdx == nil {
		return nil
	}
	prefix := tagPrefix(tag)
	var (
		cur   []byte
		ps    []Posting
		inner error
	)
	flush := func() {
		if len(ps) > 0 {
			inner = fn(string(cur), ps)
		}
		ps = ps[:0]
	}
	err := sn.valIdx.ScanPrefix(prefix, func(k, v []byte) bool {
		// tag, 0x00, content, 0x00, doc be32, start be32
		if len(k) < len(prefix)+9 || k[len(k)-9] != 0 {
			inner = fmt.Errorf("%w: value-index key of %d bytes", errCorruptBlock, len(k))
			return false
		}
		content := k[len(prefix) : len(k)-9]
		if bytes.IndexByte(content, 0) >= 0 {
			return true
		}
		if !bytes.Equal(content, cur) {
			if flush(); inner != nil {
				return false
			}
			cur = append(cur[:0], content...)
		}
		ps, inner = appendBlockPostings(ps, k[len(k)-8:], v)
		return inner == nil
	})
	if err != nil {
		return err
	}
	if inner == nil {
		flush()
	}
	return inner
}

// ScanRange calls fn for every node of doc whose start number lies in
// [lo, hi), in document order. fn receives the decoded record. This is
// the subtree-scan primitive: a node's subtree is exactly the start
// range (n.Start, n.End).
func (sn *Snapshot) ScanRange(doc xmltree.DocID, lo, hi uint32, fn func(*NodeRecord) error) error {
	loKey := locatorKey(xmltree.NodeID{Doc: doc, Start: lo})
	hiKey := locatorKey(xmltree.NodeID{Doc: doc, Start: hi})
	var inner error
	err := sn.locator.ScanRange(loKey, hiKey, func(_, v []byte) bool {
		rid, err := decodeRID(v)
		if err != nil {
			inner = err
			return false
		}
		rec, err := sn.GetNodeAt(rid)
		if err != nil {
			inner = err
			return false
		}
		if err := fn(rec); err != nil {
			inner = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return inner
}

// GetSubtree materializes the full subtree rooted at id as an xmltree,
// reading every descendant record. Interval numbers on the returned
// nodes are the stored ones.
func (sn *Snapshot) GetSubtree(id xmltree.NodeID) (*xmltree.Node, error) {
	rootRec, err := sn.GetNode(id)
	if err != nil {
		return nil, err
	}
	root := &xmltree.Node{
		Tag:      rootRec.Tag,
		Content:  rootRec.Content,
		Attrs:    rootRec.Attrs,
		Interval: rootRec.Interval,
	}
	// Descendants have start numbers in (Start, End), appearing in
	// document order; rebuild with a level stack.
	stack := []*xmltree.Node{root}
	err = sn.ScanRange(id.Doc, rootRec.Interval.Start+1, rootRec.Interval.End, func(rec *NodeRecord) error {
		n := &xmltree.Node{
			Tag:      rec.Tag,
			Content:  rec.Content,
			Attrs:    rec.Attrs,
			Interval: rec.Interval,
		}
		for len(stack) > 0 && stack[len(stack)-1].Interval.End < n.Interval.Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return errors.New("storage: subtree scan lost its ancestor stack")
		}
		stack[len(stack)-1].Append(n)
		stack = append(stack, n)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}

// ScanDocument calls fn for every node of the document in document
// order. It is the full-scan access path (the paper's "simplest way to
// find matches for a pattern tree is to scan the entire database").
func (sn *Snapshot) ScanDocument(doc xmltree.DocID, fn func(*NodeRecord) error) error {
	return sn.ScanRange(doc, 0, ^uint32(0), fn)
}

// Tags returns every distinct tag present in the tag index, in
// lexicographic order.
func (sn *Snapshot) Tags() ([]string, error) {
	var tags []string
	var last []byte
	err := sn.tagIdx.ScanPrefix(nil, func(k, _ []byte) bool {
		i := bytes.IndexByte(k, 0)
		if i < 0 {
			return true
		}
		tag := k[:i]
		if last == nil || !bytes.Equal(tag, last) {
			tags = append(tags, string(tag))
			last = append(last[:0], tag...)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return tags, nil
}
