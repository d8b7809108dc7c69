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

// ContentsBatch populates out[i] with the stored content of ps[i] for a
// whole batch of postings in one call — the late-materialization access
// path of the streaming executor. Consecutive postings on the same heap
// page share a single buffer-pool fetch (the page stays pinned across
// them), so a batch of output rows clustered in document order costs
// far fewer fetches than len(ps) individual Content calls. out must
// have len(ps) slots.
func (sn *Snapshot) ContentsBatch(ps []Posting, out []string) error {
	st := sn.db.st
	for i := 0; i < len(ps); {
		j := i + 1
		for j < len(ps) && ps[j].RID.Page == ps[i].RID.Page {
			j++
		}
		p, err := st.Fetch(ps[i].RID.Page)
		if err != nil {
			return err
		}
		sp := pagestore.ViewSlotted(p)
		for k := i; k < j; k++ {
			b, rerr := sp.Read(ps[k].RID.Slot)
			if rerr != nil {
				st.Unpin(p, false)
				return rerr
			}
			content, derr := recordContentCompact(b)
			if derr != nil {
				st.Unpin(p, false)
				return derr
			}
			out[k] = content
		}
		st.Unpin(p, false)
		i = j
	}
	return nil
}

// ContentsBatch is the pin-per-call form of Snapshot.ContentsBatch.
//
// Deprecated: only the benchmark harness calls it; ROADMAP item 2(a)
// moves the harness onto a Snapshot and then deletes this method.
func (db *DB) ContentsBatch(ps []Posting, out []string) error {
	sn := db.Snapshot()
	defer sn.Close()
	return sn.ContentsBatch(ps, out)
}

// TagPostings pins a snapshot and drains its TagStream over tag: every
// posting of tag in document order.
//
// Deprecated: only the benchmark harness calls it; ROADMAP item 2(a)
// moves the harness onto a Snapshot and then deletes this method.
func (db *DB) TagPostings(tag string) ([]Posting, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return Drain(sn.TagStream(tag))
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
