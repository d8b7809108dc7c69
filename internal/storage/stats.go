package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"timber/internal/stats"
)

// Cardinality statistics are not stored: Snapshot.CardStats computes
// them on demand with one pass over the snapshot's tag and value
// indexes (the ANALYZE scan), so they are exact for the state they
// describe and no write path maintains them.
//
// Files written by earlier versions carry persisted statistics records
// in the catalog tree, under keys with the reserved prefix
// {ff ff ff ff fe}. Document keys are exactly 4 bytes and those are 6+,
// so readers skip them by length (isStatsKey) and nothing rewrites or
// deletes them.

// isStatsKey reports whether a catalog key belongs to the reserved
// statistics key space (document keys are exactly 4 bytes).
func isStatsKey(k []byte) bool { return len(k) != 4 }

// CardStats aggregates the cardinality statistics of this snapshot's
// state from its tag and value indexes — the ANALYZE scan. Tag-index
// keys are (tag, 0x00, doc be32, start be32) and sorted, so per-tag
// posting and distinct-document counts fall out of one sequential
// pass; the value index adds per-tag value postings and distinct
// (tag, content) counts the same way. Nothing is persisted.
func (sn *Snapshot) CardStats() (*stats.Catalog, error) {
	cat := stats.New()
	cat.Documents = uint64(len(sn.s.docs))

	countPostings := func(v []byte) (uint64, error) {
		n, w := binary.Uvarint(v)
		if w <= 0 || n < 1 {
			return 0, errCorruptBlock
		}
		return n, nil
	}

	var curTag, curDoc []byte
	var cur stats.TagStat
	flush := func() {
		if curTag != nil {
			cat.Tags[string(curTag)] = cur
			cat.TotalNodes += cur.Postings
		}
		cur = stats.TagStat{}
		curDoc = nil
	}
	var inner error
	err := sn.tagIdx.ScanPrefix(nil, func(k, v []byte) bool {
		sep := bytes.IndexByte(k, 0)
		if sep < 0 || len(k) < sep+9 {
			inner = fmt.Errorf("storage: malformed tag-index key %q", k)
			return false
		}
		tag, doc := k[:sep], k[sep+1:sep+5]
		if !bytes.Equal(tag, curTag) {
			flush()
			curTag = append(curTag[:0], tag...)
		}
		n, cerr := countPostings(v)
		if cerr != nil {
			inner = cerr
			return false
		}
		cur.Postings += n
		if !bytes.Equal(doc, curDoc) {
			cur.Docs++
			curDoc = append(curDoc[:0], doc...)
		}
		return true
	})
	if err == nil {
		err = inner
	}
	if err != nil {
		return nil, err
	}
	flush()

	if sn.valIdx != nil {
		var vTag, vPair []byte
		err = sn.valIdx.ScanPrefix(nil, func(k, v []byte) bool {
			sep := bytes.IndexByte(k, 0)
			if sep < 0 || len(k) < sep+9 {
				inner = fmt.Errorf("storage: malformed value-index key %q", k)
				return false
			}
			// The pair prefix (tag, 0x00, content, 0x00) is everything
			// before the 8-byte (doc, start) suffix.
			tag, pair := k[:sep], k[:len(k)-8]
			n, cerr := countPostings(v)
			if cerr != nil {
				inner = cerr
				return false
			}
			if !bytes.Equal(tag, vTag) {
				vTag = append(vTag[:0], tag...)
			}
			ts := cat.Tags[string(vTag)]
			ts.ValuePostings += n
			if !bytes.Equal(pair, vPair) {
				ts.DistinctValues++
				vPair = append(vPair[:0], pair...)
			}
			cat.Tags[string(vTag)] = ts
			return true
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// BuildCardStats is the ANALYZE scan of the current state: it pins a
// snapshot and returns Snapshot.CardStats. It writes nothing, so the
// sync policy is ignored.
func (db *DB) BuildCardStats(SyncPolicy) (*stats.Catalog, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return sn.CardStats()
}
