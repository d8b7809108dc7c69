package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"timber/internal/btree"
	"timber/internal/obs"
	"timber/internal/pagestore"
	"timber/internal/stats"
)

// Cardinality statistics. The catalog B+tree doubles as the statistics
// store: document records live under 4-byte big-endian ID keys, and
// statistics records live under a reserved prefix that is longer than
// any document key, so document scans and statistics scans never
// collide. Riding the catalog tree means statistics updates join
// ingest transactions' COW + WAL protocol for free: they are
// crash-safe, snapshot-isolated and epoch-consistent with the data
// they describe.
//
// Freshness is decided by a version token derived from durable catalog
// state — nextDocID (never reused) and the document count — captured
// in the header record. InsertDocument and DeleteDocument maintain the
// statistics incrementally in the same transaction, so the token keeps
// matching; the offline bulk path (LoadDocument) bypasses maintenance
// and leaves the token behind, marking the statistics stale until the
// next BuildCardStats.

// statsKeyPrefix reserves the statistics key space inside the catalog
// tree. Document keys are exactly 4 bytes; these are 6+.
var statsKeyPrefix = []byte{0xff, 0xff, 0xff, 0xff, 0xfe}

// statsHeaderKey stores the catalog-level record.
func statsHeaderKey() []byte { return append(append([]byte(nil), statsKeyPrefix...), 'H') }

// statsTagKey stores one tag's record.
func statsTagKey(tag string) []byte {
	k := make([]byte, 0, len(statsKeyPrefix)+1+len(tag))
	k = append(k, statsKeyPrefix...)
	k = append(k, 'T')
	return append(k, tag...)
}

// isStatsKey reports whether a catalog key belongs to the statistics
// key space (document keys are exactly 4 bytes).
func isStatsKey(k []byte) bool { return len(k) != 4 }

// ErrNoStats is returned by CardStats when the database carries no
// persisted statistics (run BuildCardStats, or let the engine build
// them on first use).
var ErrNoStats = errors.New("storage: no cardinality statistics")

// statsVersion derives the freshness token from durable catalog state.
// nextDocID advances on every insert and is never reused, and the
// document count drops on every delete, so any data change moves the
// token; it is identical across reopen (unlike epochs, which restart
// at 1).
func statsVersion(s *snapState) uint64 {
	return statsVersionFor(s.nextDocID, len(s.docs))
}

// statsVersionFor builds the token from its components — used by
// ingest builds to stamp the successor state before it exists.
func statsVersionFor(nextDocID uint32, docCount int) uint64 {
	return uint64(nextDocID)<<32 | uint64(docCount)
}

// CardStats reads the persisted cardinality statistics of this
// snapshot's state. Fresh is set when the statistics describe exactly
// this state; stale statistics (offline loads bypass maintenance) are
// still returned — estimates beat nothing — with Fresh false.
func (sn *Snapshot) CardStats() (*stats.Catalog, error) {
	cat, err := readCardStats(sn.catalogT)
	if err != nil {
		return nil, err
	}
	cat.Fresh = cat.Version == statsVersion(sn.s)
	return cat, nil
}

// CardStats is the pin-per-call form of Snapshot.CardStats.
func (db *DB) CardStats() (*stats.Catalog, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return sn.CardStats()
}

// readCardStats decodes the statistics records out of a catalog tree.
func readCardStats(t *btree.Tree) (*stats.Catalog, error) {
	hv, err := t.Get(statsHeaderKey())
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return nil, ErrNoStats
		}
		return nil, err
	}
	cat, err := stats.DecodeHeader(hv)
	if err != nil {
		return nil, err
	}
	tagPrefix := statsTagKey("")
	var inner error
	err = t.ScanPrefix(tagPrefix, func(k, v []byte) bool {
		ts, terr := stats.DecodeTag(v)
		if terr != nil {
			inner = terr
			return false
		}
		cat.Tags[string(k[len(tagPrefix):])] = ts
		return true
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	return cat, nil
}

// collectCardStats aggregates a full statistics catalog from the tag
// and value indices of one state — the ANALYZE scan. Tag-index keys
// are (tag, 0x00, doc be32, start be32) and sorted, so per-tag posting
// and distinct-document counts fall out of one sequential pass; the
// value index adds per-tag value postings and distinct (tag, content)
// counts the same way.
func (db *DB) collectCardStats(s *snapState) (*stats.Catalog, error) {
	cat := stats.New()
	cat.Epoch = s.epoch
	cat.Version = statsVersion(s)
	cat.Documents = uint64(len(s.docs))

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
	err := db.tree(s.tag).ScanPrefix(nil, func(k, v []byte) bool {
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

	if s.hasVal {
		var vTag, vPair []byte
		err = db.tree(s.val).ScanPrefix(nil, func(k, v []byte) bool {
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

// BuildCardStats scans the tag and value indices and persists a full
// statistics catalog — the ANALYZE operation. It commits like any
// ingest transaction (COW catalog pages, WAL, per-policy fsync) and
// may run concurrently with readers; the returned catalog is stamped
// with the committed state's epoch and version, so it reads back Fresh
// until the next offline load.
func (db *DB) BuildCardStats(policy SyncPolicy) (*stats.Catalog, error) {
	pol := db.policy(policy)
	start := time.Now()
	db.writeMu.Lock()
	cat, t, err := db.buildStatsTxn()
	if err == nil {
		err = db.commitLocked(t)
	}
	if err != nil {
		db.abortLocked(t)
		db.writeMu.Unlock()
		db.journal.Emit(obs.Event{Type: obs.EvStatsRebuild, Err: err.Error()})
		return nil, fmt.Errorf("storage: build stats: %w", err)
	}
	seq := db.seq
	db.writeMu.Unlock()
	if err := db.finishCommit(t.state, seq, pol, t.freed); err != nil {
		db.journal.Emit(obs.Event{Type: obs.EvStatsRebuild, WALSeq: seq, Err: err.Error()})
		return nil, fmt.Errorf("storage: build stats: %w", err)
	}
	db.journal.Emit(obs.Event{
		Type:   obs.EvStatsRebuild,
		WALSeq: seq,
		Epoch:  t.state.epoch,
		Count:  int64(len(cat.Tags)),
		DurNS:  time.Since(start).Nanoseconds(),
	})
	return cat, nil
}

// buildStatsTxn collects and writes the statistics records into fresh
// catalog pages. Caller holds writeMu.
func (db *DB) buildStatsTxn() (*stats.Catalog, *txn, error) {
	base := db.tip
	cat, err := db.collectCardStats(base)
	if err != nil {
		return nil, nil, err
	}
	// The statistics describe the data of base, which the commit
	// republishes untouched under the next epoch; stamp them with the
	// state they will live in.
	cat.Epoch = base.epoch + 1
	cat.Fresh = true

	// Tag records that vanished since the last build must go.
	var dead [][]byte
	tagPrefix := statsTagKey("")
	err = db.tree(base.catalog).ScanPrefix(tagPrefix, func(k, _ []byte) bool {
		if _, ok := cat.Tags[string(k[len(tagPrefix):])]; !ok {
			dead = append(dead, append([]byte(nil), k...))
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}

	h, err := db.beginTxn()
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*stats.Catalog, *txn, error) {
		return nil, db.finishTxn(h, func(*snapState) {}), err
	}
	for _, k := range dead {
		if err := h.catalog.Delete(k); err != nil {
			return fail(err)
		}
	}
	if err := cowUpsert(h.catalog, statsHeaderKey(), stats.EncodeHeader(cat)); err != nil {
		return fail(err)
	}
	for tag, ts := range cat.Tags {
		if err := cowUpsert(h.catalog, statsTagKey(tag), stats.EncodeTag(ts)); err != nil {
			return fail(err)
		}
	}
	t := db.finishTxn(h, func(s *snapState) { s.docs = base.docs })
	return cat, t, nil
}

// cowUpsert replaces the value under key (the B+trees reject duplicate
// inserts, so an update is delete + insert).
func cowUpsert(c *btree.COW, key, value []byte) error {
	if err := c.Delete(key); err != nil && !errors.Is(err, btree.ErrNotFound) {
		return err
	}
	return c.Insert(key, value)
}

// statsDelta is one document's contribution to the statistics, counted
// by the ingest build phase: per-tag posting and value-posting counts,
// per-tag distinct (tag, content) pairs that appear or vanish with the
// document, and the node total.
type statsDelta struct {
	nodes uint64
	tags  map[string]stats.TagStat // Postings/ValuePostings/DistinctValues as per-doc deltas; Docs unused
}

func newStatsDelta() *statsDelta {
	return &statsDelta{tags: map[string]stats.TagStat{}}
}

// loadStatsHeader reads the header record from a catalog root,
// reporting absent statistics as (nil, nil).
func (db *DB) loadStatsHeader(root pagestore.PageID) (*stats.Catalog, error) {
	hv, err := db.tree(root).Get(statsHeaderKey())
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return nil, nil
		}
		return nil, err
	}
	return stats.DecodeHeader(hv)
}

// statsMaintained reports whether the base state carries fresh
// statistics worth maintaining incrementally. Absent or stale
// statistics stay as they are (BuildCardStats repairs both).
func (db *DB) statsMaintained(base *snapState) (bool, error) {
	hdr, err := db.loadStatsHeader(base.catalog)
	if err != nil || hdr == nil {
		return false, err
	}
	return hdr.Version == statsVersion(base), nil
}

// applyStatsDelta folds one document's delta into the persisted
// statistics inside the same COW transaction. sign is +1 for insert,
// -1 for delete; epoch, version and docCount describe the successor
// state the transaction will commit (it does not exist yet — finishTxn
// builds it after the COW writes). Caller holds writeMu and has
// verified statsMaintained.
func (db *DB) applyStatsDelta(h *writeHandles, base *snapState, d *statsDelta, sign int, epoch, version, docCount uint64) error {
	hdr, err := db.loadStatsHeader(base.catalog)
	if err != nil {
		return err
	}
	if hdr == nil {
		return nil
	}
	baseT := db.tree(base.catalog)
	for tag, delta := range d.tags {
		ts, err := loadTagStat(baseT, tag)
		if err != nil {
			return err
		}
		if sign > 0 {
			ts.Postings += delta.Postings
			ts.Docs++ // the document is new: every tag it contains gains one doc
			ts.ValuePostings += delta.ValuePostings
			ts.DistinctValues += delta.DistinctValues
		} else {
			ts.Postings = subFloor(ts.Postings, delta.Postings)
			ts.Docs = subFloor(ts.Docs, 1)
			ts.ValuePostings = subFloor(ts.ValuePostings, delta.ValuePostings)
			ts.DistinctValues = subFloor(ts.DistinctValues, delta.DistinctValues)
		}
		if ts == (stats.TagStat{}) {
			if err := h.catalog.Delete(statsTagKey(tag)); err != nil && !errors.Is(err, btree.ErrNotFound) {
				return err
			}
			continue
		}
		if err := cowUpsert(h.catalog, statsTagKey(tag), stats.EncodeTag(ts)); err != nil {
			return err
		}
	}
	if sign > 0 {
		hdr.TotalNodes += d.nodes
	} else {
		hdr.TotalNodes = subFloor(hdr.TotalNodes, d.nodes)
	}
	hdr.Documents = docCount
	hdr.Epoch = epoch
	hdr.Version = version
	return cowUpsert(h.catalog, statsHeaderKey(), stats.EncodeHeader(hdr))
}

// loadTagStat reads one tag's persisted statistics (zero when absent).
func loadTagStat(t *btree.Tree, tag string) (stats.TagStat, error) {
	v, err := t.Get(statsTagKey(tag))
	if err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return stats.TagStat{}, nil
		}
		return stats.TagStat{}, err
	}
	return stats.DecodeTag(v)
}

func subFloor(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// treeHasPrefix reports whether any key under prefix exists — the
// novelty probe for distinct (tag, content) pairs on insert.
func treeHasPrefix(t *btree.Tree, prefix []byte) (bool, error) {
	found := false
	err := t.ScanPrefix(prefix, func(_, _ []byte) bool {
		found = true
		return false
	})
	return found, err
}

// treeHasPrefixOutsideDoc reports whether any key under prefix belongs
// to a document other than doc — the extinction probe for distinct
// (tag, content) pairs on delete. The doc ID sits immediately after
// the prefix in both index key layouts.
func treeHasPrefixOutsideDoc(t *btree.Tree, prefix, doc []byte) (bool, error) {
	found := false
	err := t.ScanPrefix(prefix, func(k, _ []byte) bool {
		if len(k) >= len(prefix)+4 && !bytes.Equal(k[len(prefix):len(prefix)+4], doc) {
			found = true
			return false
		}
		return true
	})
	return found, err
}
