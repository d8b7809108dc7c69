package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"timber/internal/btree"
	"timber/internal/obs"
	"timber/internal/pagestore"
	"timber/internal/wal"
	"timber/internal/xmltree"
)

// SyncPolicy selects when a durable write (InsertDocument,
// DeleteDocument) forces its WAL records to disk.
type SyncPolicy int

const (
	// SyncDefault defers to the database's Options.SyncPolicy (and to
	// SyncGroup if that is also unset).
	SyncDefault SyncPolicy = iota
	// SyncAlways fsyncs the WAL before the call returns: an
	// acknowledged write survives any crash.
	SyncAlways
	// SyncGroup also fsyncs before returning, but concurrent commits
	// share one flush (group commit): the first goroutine into the sync
	// path fsyncs on behalf of every commit appended so far.
	SyncGroup
	// SyncNone acknowledges without fsyncing. The write is applied and
	// ordered, becomes durable at the next sync or checkpoint, and may
	// be lost in a crash before then. Recovery still never sees a torn
	// or reordered state — just a shorter committed prefix.
	SyncNone
)

// ParseSyncPolicy maps the wire/flag spelling of a sync policy to its
// value; the empty string means SyncDefault.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "default":
		return SyncDefault, nil
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("storage: unknown sync policy %q (want always, group or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncNone:
		return "none"
	}
	return "default"
}

// DefaultCheckpointBytes is the WAL size beyond which a commit
// triggers a checkpoint (flush data pages, write the meta page, reset
// the log).
const DefaultCheckpointBytes = 8 << 20

// Options configures a database.
type Options struct {
	// PageSize and PoolPages configure the underlying page store; see
	// pagestore.Options. The defaults reproduce the paper's experiment
	// configuration (8 KB pages, 32 MB pool). Open ignores a zero
	// PageSize and adopts the file's own; a non-zero PageSize that
	// disagrees with the file is an error.
	PageSize  int
	PoolPages int
	// NoValueIndex disables the (tag, content) value index, halving
	// index build cost for workloads that never use value predicates.
	NoValueIndex bool
	// SyncPolicy is the default durability of InsertDocument and
	// DeleteDocument calls that pass SyncDefault. Unset means SyncGroup.
	SyncPolicy SyncPolicy
	// CheckpointBytes is the WAL size that triggers a checkpoint after
	// a commit; zero means DefaultCheckpointBytes.
	CheckpointBytes int64
	// Journal receives the write path's structured events (commits,
	// fsyncs, checkpoints, recovery, retirement). Nil disables emission
	// entirely — every site reduces to a nil check.
	Journal *obs.Journal
}

// psOptions maps storage options onto the page store's, attaching the
// built-in LZ page codec.
func (o Options) psOptions() pagestore.Options {
	return pagestore.Options{PageSize: o.PageSize, PoolPages: o.PoolPages, Codec: pagestore.LZ()}
}

// DocInfo describes one loaded document in the catalog.
type DocInfo struct {
	ID        xmltree.DocID
	Name      string
	RootStart uint32
	NodeCount uint64
}

// DB is a TIMBER-style native XML database: a page store holding node
// records (Data Manager), B+tree indices (Index Manager) and a catalog
// (Metadata Manager), fronted by a write-ahead log for durable online
// ingest.
//
// Concurrency model. The database publishes immutable snapState
// values: every committed transaction builds a fresh state whose new
// pages are copies (copy-on-write trees, freshly cut heap tails), so a
// reader that pins a state sees byte-stable pages until it unpins.
// Readers obtain a pin with Snapshot and read through it (DB's own
// methods cover writes, the catalog and reporting); writers serialize
// on writeMu and chain off tip, the newest committed state, which may
// be slightly ahead of the reader-visible head while its WAL fsync is
// in flight. Pages superseded by a commit are retired and only
// reclaimed for reuse once (a) no snapshot pinned an older epoch and
// (b) the commit that freed them is WAL-durable — so a crash can never
// have reused a page the last durable metadata still references.
//
// The offline bulk path (LoadDocument, LoadXML) mutates index pages in
// place and still requires exclusive access: no reader, spool or other
// writer may run concurrently with it, and a crash while it runs can
// corrupt the file (rebuild from sources). InsertDocument and
// DeleteDocument are the online, crash-safe counterparts and may run
// concurrently with any number of readers.
type DB struct {
	st   *pagestore.Store
	wal  *wal.Log // nil: no log (CreateOnFiles with a nil WAL file); ingest is non-durable
	opts Options
	// idxMetrics counts B+tree traversal work across all indices; the
	// observability layer snapshots it at span boundaries.
	idxMetrics btree.Metrics

	// writeMu serializes writers: ingest transactions, offline loads
	// and checkpoints. tip and seq are guarded by it.
	writeMu sync.Mutex
	tip     *snapState // newest committed state (writers chain off it)
	seq     uint64     // newest committed transaction sequence

	// head is the newest published state — what new snapshots read.
	// Under SyncAlways/SyncGroup a state is published only after the
	// fsync covering its commit; under SyncNone immediately.
	head atomic.Pointer[snapState]

	// pinMu guards the snapshot pin counts and the retired-page sets.
	// Lock order: pinMu before the store's allocator (reclaim calls
	// FreePages while holding it); nothing takes pinMu while holding a
	// store lock.
	pinMu   sync.Mutex
	pins    map[uint64]int // epoch → open snapshots
	retired []retiredSet

	// journal is the structured event sink (nil = disabled); commitSeq
	// mirrors seq so readers can snapshot the committed sequence without
	// writeMu — the server's slow-query correlation reads it per request.
	journal   *obs.Journal
	commitSeq atomic.Uint64

	ing ingestStats
}

// Journal returns the database's event journal (nil when disabled) —
// the single wiring point the engine and server hang off.
func (db *DB) Journal() *obs.Journal { return db.journal }

// CommitSeq returns the newest committed transaction sequence without
// taking the write lock. With events on, a query's overlapping WAL
// commits are exactly those with CommitSeq-before < seq <=
// CommitSeq-after.
func (db *DB) CommitSeq() uint64 { return db.commitSeq.Load() }

// ingestStats counts write-path activity for the metrics registry.
type ingestStats struct {
	inserted        atomic.Uint64
	deleted         atomic.Uint64
	txnPages        atomic.Uint64
	checkpoints     atomic.Uint64
	pagesRetired    atomic.Uint64
	pagesReclaimed  atomic.Uint64
	spoolRuns       atomic.Uint64
	spoolRunsLeaked atomic.Uint64
	spoolPagesFreed atomic.Uint64
	snapshotsPinned atomic.Int64
}

// tree opens a read handle over a persisted root, wired to the shared
// traversal counters.
func (db *DB) tree(root pagestore.PageID) *btree.Tree {
	t := btree.Open(db.st, root)
	t.SetMetrics(&db.idxMetrics)
	return t
}

// policy resolves a per-call sync policy against the database default.
func (db *DB) policy(p SyncPolicy) SyncPolicy {
	if p == SyncDefault {
		p = db.opts.SyncPolicy
	}
	if p == SyncDefault {
		p = SyncGroup
	}
	return p
}

// DefaultSyncPolicy reports the policy a SyncDefault write resolves to
// on this database.
func (db *DB) DefaultSyncPolicy() SyncPolicy { return db.policy(SyncDefault) }

func (db *DB) checkpointBytes() int64 {
	if db.opts.CheckpointBytes > 0 {
		return db.opts.CheckpointBytes
	}
	return DefaultCheckpointBytes
}

// Create creates a new database file at path, plus its write-ahead log
// at path+".wal"; both directory entries are fsynced.
func Create(path string, opts Options) (*DB, error) {
	st, err := pagestore.Create(path, opts.psOptions())
	if err != nil {
		return nil, err
	}
	wf, err := os.OpenFile(walPath(path), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("storage: create wal: %w", err), st.Close())
	}
	if err := pagestore.FsyncDir(filepath.Dir(path)); err != nil {
		return nil, errors.Join(err, wf.Close(), st.Close())
	}
	return initDB(st, pagestore.OSFile(wf), opts)
}

// walPath returns the write-ahead log path for a database path.
func walPath(dbPath string) string { return dbPath + ".wal" }

// CreateTemp creates a database backed by temporary files (data and
// WAL) that are unlinked immediately and disappear on Close. Tests and
// benches use this; the WAL is real, so the durable ingest path runs
// exactly as in production.
func CreateTemp(opts Options) (*DB, error) {
	st, err := pagestore.CreateTemp(opts.psOptions())
	if err != nil {
		return nil, err
	}
	wf, err := os.CreateTemp("", "timber-wal-*")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("storage: create temp wal: %w", err), st.Close())
	}
	// Unlink now: the fd keeps the log alive until Close, and a crash
	// leaves no orphan.
	if err := os.Remove(wf.Name()); err != nil {
		return nil, errors.Join(fmt.Errorf("storage: create temp wal: %w", err), wf.Close(), st.Close())
	}
	return initDB(st, pagestore.OSFile(wf), opts)
}

// CreateOnFiles creates a database over caller-supplied files —
// fault-injection and crash-recovery harnesses run the full stack over
// modeled disks this way. A nil walFile disables logging: ingest still
// works but is only durable at checkpoints.
func CreateOnFiles(dbFile, walFile pagestore.File, opts Options) (*DB, error) {
	st, err := pagestore.CreateOn(dbFile, opts.psOptions())
	if err != nil {
		if walFile != nil {
			walFile.Close()
		}
		return nil, err
	}
	return initDB(st, walFile, opts)
}

func initDB(st *pagestore.Store, walFile pagestore.File, opts Options) (*DB, error) {
	db := &DB{st: st, opts: opts, pins: make(map[uint64]int), journal: opts.Journal}
	if walFile != nil {
		db.wal = wal.Open(walFile, 0, 0)
		db.wal.SetJournal(opts.Journal)
	}
	fail := func(err error) (*DB, error) {
		if db.wal != nil {
			_ = db.wal.Close()
		} else if walFile != nil {
			_ = walFile.Close()
		}
		return nil, errors.Join(err, st.Close())
	}

	// Page 0 is reserved for metadata; allocate it first. It is always
	// written raw so the open path can sniff the blob at fixed offsets
	// before it knows the file's codec.
	meta, err := st.Allocate()
	if err != nil {
		return fail(err)
	}
	if meta.ID() != 0 {
		st.Unpin(meta, false)
		return fail(errors.New("storage: metadata page is not page 0"))
	}
	st.Unpin(meta, true)
	st.SetRawPage(0)

	// Record pages carry varint-compact payloads and serve random point
	// reads (late materialization); only the index trees go through the
	// page codec.
	heap, err := pagestore.NewHeap(st)
	if err != nil {
		return fail(err)
	}
	heap.SetRaw()
	catalog, err := btree.New(st)
	if err != nil {
		return fail(err)
	}
	locator, err := btree.New(st)
	if err != nil {
		return fail(err)
	}
	tagIdx, err := btree.New(st)
	if err != nil {
		return fail(err)
	}
	var valIdx *btree.Tree
	if !opts.NoValueIndex {
		if valIdx, err = btree.New(st); err != nil {
			return fail(err)
		}
	}

	state := &snapState{
		epoch:     1,
		heapFirst: heap.FirstPage(),
		heapLast:  heap.LastPage(),
		catalog:   catalog.Root(),
		locator:   locator.Root(),
		tag:       tagIdx.Root(),
		hasVal:    valIdx != nil,
		nextDocID: 1,
	}
	if valIdx != nil {
		state.val = valIdx.Root()
	}
	db.tip = state
	db.head.Store(state)

	db.writeMu.Lock()
	err = db.checkpointLocked()
	db.writeMu.Unlock()
	if err != nil {
		return fail(err)
	}
	return db, nil
}

// Open reopens an existing database, replaying its write-ahead log:
// every transaction with a durable commit record is reapplied, any
// torn tail is discarded, and the store's page count is rolled back to
// the committed state. The page size and codec are read from the file
// itself. Databases written by older versions return ErrNeedsRebuild.
func Open(path string, opts Options) (*DB, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open: %w", err)
	}
	wf, err := os.OpenFile(walPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	return OpenOnFiles(pagestore.OSFile(f), pagestore.OSFile(wf), opts)
}

// OpenOnFiles reopens a database over caller-supplied files, running
// full crash recovery (see Open). A nil walFile skips replay and
// disables logging. Both files are closed on error.
func OpenOnFiles(dbFile, walFile pagestore.File, opts Options) (*DB, error) {
	closeAll := func(err error) (*DB, error) {
		if walFile != nil {
			_ = walFile.Close()
		}
		return nil, errors.Join(err, dbFile.Close())
	}

	var metaFallback bool
	m, err := sniffMeta(dbFile)
	if err != nil {
		if !errors.Is(err, errMetaTorn) || walFile == nil {
			return closeAll(err)
		}
		// The checkpointed copy is torn (a crash can interrupt the
		// checkpoint's meta write); the WAL holds the authoritative
		// state in that window.
		wm, ok, werr := lastWALMeta(walFile)
		if werr != nil {
			return closeAll(fmt.Errorf("%w (and WAL fallback failed: %v)", err, werr))
		}
		if !ok {
			return closeAll(err)
		}
		m = wm
		metaFallback = true
	}
	if opts.PageSize != 0 && opts.PageSize != int(m.pageSize) {
		return closeAll(fmt.Errorf("storage: database uses %d-byte pages, opened with %d", m.pageSize, opts.PageSize))
	}
	psOpts := Options{PageSize: int(m.pageSize), PoolPages: opts.PoolPages}.psOptions()
	st, err := pagestore.OpenOn(dbFile, psOpts) // closes dbFile on error
	if err != nil {
		if walFile != nil {
			_ = walFile.Close()
		}
		return nil, err
	}
	st.SetRawPage(0)

	db := &DB{st: st, opts: opts, pins: make(map[uint64]int), journal: opts.Journal}
	state := m.s
	numPages := m.numPages
	var committedLen int64
	var lastSeq uint64
	var rec recoveryCounts
	var walSize int64
	if walFile != nil {
		if walSize, err = walFile.Size(); err != nil {
			_ = walFile.Close()
			return nil, errors.Join(fmt.Errorf("storage: open: %w", err), st.Close())
		}
		committedLen, lastSeq, err = db.replayWAL(walFile, &state, &numPages, &rec)
		if err != nil {
			_ = walFile.Close()
			return nil, errors.Join(err, st.Close())
		}
	}
	failOpen := func(err error) (*DB, error) {
		if walFile != nil {
			_ = walFile.Close()
		}
		return nil, errors.Join(err, st.Close())
	}
	// Roll the page count back to the committed state: pages allocated
	// by transactions that never committed (and any torn final slot)
	// are trimmed away.
	if err := st.SetNumPages(numPages); err != nil {
		return failOpen(err)
	}
	// A crashed transaction can have applied its heap chain link
	// in-pool and had the sealed page flushed before its commit became
	// durable; the committed insertion page must end the chain again.
	if err := db.clearTailLink(state.heapLast); err != nil {
		return failOpen(err)
	}
	docs, err := db.loadCatalog(state.catalog)
	if err != nil {
		return failOpen(err)
	}
	state.docs = docs
	state.epoch = 1
	db.seq = lastSeq
	db.commitSeq.Store(lastSeq)
	db.tip = &state
	db.head.Store(&state)
	if walFile != nil {
		// Drop clean-but-uncommitted tail frames before appending: a
		// later commit record must not seal orphans into itself.
		if err := walFile.Truncate(committedLen); err != nil {
			return failOpen(fmt.Errorf("storage: open: truncate wal: %w", err))
		}
		db.wal = wal.Open(walFile, committedLen, lastSeq)
		db.wal.SetJournal(opts.Journal)

		// One recovery event per open, with the timeline compressed into
		// the labels: whether the tail was truncated (torn frames or
		// clean-but-uncommitted orphans), and whether the meta page was
		// repaired from the WAL.
		label := "clean"
		if committedLen < walSize {
			label = "torn_tail"
		}
		if metaFallback {
			label += ",meta_fallback"
		}
		db.journal.Emit(obs.Event{
			Type:   obs.EvRecovery,
			WALSeq: lastSeq,
			Bytes:  committedLen,
			Count:  rec.records,
			Aux:    rec.pages,
			Label:  label,
		})
	}
	// Checkpoint the recovered state: restored pages and the meta page
	// become durable in the data file and the log empties, so the next
	// open needs no replay.
	db.writeMu.Lock()
	err = db.checkpointLocked()
	db.writeMu.Unlock()
	if err != nil {
		if db.wal != nil {
			_ = db.wal.Close()
		}
		return nil, errors.Join(err, st.Close())
	}
	return db, nil
}

// recoveryCounts tallies what replay actually applied, for the
// recovery event.
type recoveryCounts struct {
	records int64 // committed records applied (pages + links)
	pages   int64 // page images restored
}

// replayWAL reapplies every committed transaction in the log. Records
// are buffered per transaction and applied only when its commit record
// is reached, so an uncommitted tail (torn or simply unacknowledged)
// has no effect. Memory is bounded by one transaction's page images.
func (db *DB) replayWAL(f pagestore.File, state *snapState, numPages *uint32, rc *recoveryCounts) (committedLen int64, lastSeq uint64, err error) {
	type walOp struct {
		link     bool
		page, to pagestore.PageID
		img      []byte
	}
	var pending []walOp
	var pendingMeta, lastMeta []byte
	apply := func() error {
		for _, op := range pending {
			rc.records++
			if op.link {
				p, err := db.st.Fetch(op.page)
				if err != nil {
					return err
				}
				pagestore.ViewSlotted(p).SetNext(op.to)
				db.st.Unpin(p, true)
				continue
			}
			if err := db.st.RestoreSlot(op.page, op.img); err != nil {
				return err
			}
			rc.pages++
		}
		pending = pending[:0]
		return nil
	}
	committedLen, lastSeq, err = wal.Replay(f, func(r wal.Record) error {
		switch r.Type {
		case wal.RecPage:
			id, img, err := r.Page()
			if err != nil {
				return err
			}
			pending = append(pending, walOp{page: id, img: append([]byte(nil), img...)})
		case wal.RecLink:
			from, to, err := r.Link()
			if err != nil {
				return err
			}
			pending = append(pending, walOp{link: true, page: from, to: to})
		case wal.RecMeta:
			pendingMeta = append(pendingMeta[:0], r.Payload...)
		case wal.RecCommit:
			if err := apply(); err != nil {
				return err
			}
			if pendingMeta != nil {
				lastMeta = append(lastMeta[:0], pendingMeta...)
				pendingMeta = nil
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("storage: recovery: %w", err)
	}
	if lastMeta != nil {
		lm, err := decodeMeta(lastMeta)
		if err != nil {
			return 0, 0, fmt.Errorf("storage: recovery: %w", err)
		}
		*state = lm.s
		*numPages = lm.numPages
	}
	return committedLen, lastSeq, nil
}

// clearTailLink resets the committed heap insertion page's next link,
// which recovery may find pointing at a truncated uncommitted page.
func (db *DB) clearTailLink(last pagestore.PageID) error {
	// The insertion page is a record-heap page: keep it codec-exempt if
	// this repair dirties it.
	db.st.SetRawPage(last)
	p, err := db.st.Fetch(last)
	if err != nil {
		return fmt.Errorf("storage: recovery: heap tail: %w", err)
	}
	sp := pagestore.ViewSlotted(p)
	if sp.Next() != pagestore.InvalidPage {
		sp.SetNext(pagestore.InvalidPage)
		db.st.Unpin(p, true)
		return nil
	}
	db.st.Unpin(p, false)
	return nil
}

// loadCatalog decodes the document catalog from its B+tree root.
// Catalog keys are big-endian document IDs, so the scan yields docs in
// ID order.
func (db *DB) loadCatalog(root pagestore.PageID) ([]DocInfo, error) {
	t := db.tree(root)
	var docs []DocInfo
	var inner error
	err := t.ScanPrefix(nil, func(k, v []byte) bool {
		if isStatsKey(k) {
			return true
		}
		d, err := decodeDocInfo(v)
		if err != nil {
			inner = err
			return false
		}
		docs = append(docs, d)
		return true
	})
	if err != nil {
		return nil, err
	}
	if inner != nil {
		return nil, inner
	}
	return docs, nil
}

// writeMeta0 copies the encoded metadata for state into page 0
// (in-pool; the caller decides when it reaches disk).
func (db *DB) writeMeta0(s *snapState) error {
	blob := encodeMeta(s, db.st.SlotSize(), db.st.NumPages())
	p, err := db.st.Fetch(0)
	if err != nil {
		return err
	}
	copy(p.Data(), blob)
	db.st.Unpin(p, true)
	return nil
}

// publish makes s the reader-visible head unless a newer state already
// is.
func (db *DB) publish(s *snapState) {
	for {
		cur := db.head.Load()
		if cur != nil && cur.epoch >= s.epoch {
			return
		}
		if db.head.CompareAndSwap(cur, s) {
			return
		}
	}
}

// checkpointLocked makes the current tip fully durable in the data
// file and empties the WAL. Caller holds writeMu. Crash safety: the
// log is reset only after the data pages and the meta page are synced,
// and until the reset the log alone can reproduce the same state — a
// torn meta-page write is repaired from the log on the next open.
func (db *DB) checkpointLocked() error {
	start := time.Now()
	var walLen int64
	if db.wal != nil {
		walLen = db.wal.Size()
		if err := db.wal.Sync(db.seq); err != nil {
			return err
		}
	}
	db.publish(db.tip)
	if err := db.writeMeta0(db.tip); err != nil {
		return err
	}
	if err := db.st.Flush(); err != nil {
		return err
	}
	if err := db.st.Sync(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Reset(); err != nil {
			return err
		}
	}
	db.ing.checkpoints.Add(1)
	db.journal.Emit(obs.Event{
		Type:   obs.EvCheckpoint,
		WALSeq: db.seq,
		Epoch:  db.tip.epoch,
		Bytes:  walLen,
		DurNS:  time.Since(start).Nanoseconds(),
	})
	db.reclaim()
	return nil
}

// Checkpoint forces a checkpoint: all committed state becomes durable
// in the data file and the WAL empties.
func (db *DB) Checkpoint() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.checkpointLocked()
}

// catalog records: docID u32, rootStart u32, nodeCount u64, nameLen u16, name.
func encodeDocInfo(d DocInfo) []byte {
	b := make([]byte, 18+len(d.Name))
	binary.LittleEndian.PutUint32(b[0:], uint32(d.ID))
	binary.LittleEndian.PutUint32(b[4:], d.RootStart)
	binary.LittleEndian.PutUint64(b[8:], d.NodeCount)
	binary.LittleEndian.PutUint16(b[16:], uint16(len(d.Name)))
	copy(b[18:], d.Name)
	return b
}

func decodeDocInfo(b []byte) (DocInfo, error) {
	if len(b) < 18 {
		return DocInfo{}, errors.New("storage: corrupt catalog record")
	}
	d := DocInfo{
		ID:        xmltree.DocID(binary.LittleEndian.Uint32(b[0:])),
		RootStart: binary.LittleEndian.Uint32(b[4:]),
		NodeCount: binary.LittleEndian.Uint64(b[8:]),
	}
	n := int(binary.LittleEndian.Uint16(b[16:]))
	if len(b) < 18+n {
		return DocInfo{}, errors.New("storage: corrupt catalog record name")
	}
	d.Name = string(b[18 : 18+n])
	return d, nil
}

// catalogKey is the catalog B+tree key for a document: the big-endian
// ID, so catalog scans run in ID order.
func catalogKey(doc xmltree.DocID) []byte { return be32(uint32(doc)) }

// Documents returns the catalog of loaded documents in ID order, as of
// the current head.
func (db *DB) Documents() []DocInfo {
	docs := db.head.Load().docs
	out := make([]DocInfo, len(docs))
	copy(out, docs)
	return out
}

// DocumentByName returns the catalog entry with the given name.
func (db *DB) DocumentByName(name string) (DocInfo, bool) {
	return findDoc(db.head.Load().docs, name)
}

func findDoc(docs []DocInfo, name string) (DocInfo, bool) {
	for _, d := range docs {
		if d.Name == name {
			return d, true
		}
	}
	return DocInfo{}, false
}

// HasValueIndex reports whether the (tag, content) value index exists.
func (db *DB) HasValueIndex() bool { return db.head.Load().hasVal }

// Epoch returns the epoch of the reader-visible head state; it
// advances by one per committed write.
func (db *DB) Epoch() uint64 { return db.head.Load().epoch }

// Stats returns the underlying buffer pool counters.
func (db *DB) Stats() pagestore.Stats { return db.st.Stats() }

// WALStats returns the write-ahead log's activity counters (zero
// without a log).
func (db *DB) WALStats() wal.Stats {
	if db.wal == nil {
		return wal.Stats{}
	}
	return db.wal.Stats()
}

// WALSize returns the log's current length in bytes (0 without a log).
func (db *DB) WALSize() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}

// IngestCounters is a point-in-time snapshot of the write-path and
// snapshot-lifecycle counters (also exported as ingest_*/spool_*
// metric families via RegisterMetrics).
type IngestCounters struct {
	DocumentsInserted uint64
	DocumentsDeleted  uint64
	TxnPages          uint64
	Checkpoints       uint64
	PagesRetired      uint64
	PagesReclaimed    uint64
	SpoolRuns         uint64
	SpoolRunsLeaked   uint64
	SpoolPagesFreed   uint64
	SnapshotsPinned   int64
}

// IngestCounters snapshots the database's write-path counters.
func (db *DB) IngestCounters() IngestCounters {
	return IngestCounters{
		DocumentsInserted: db.ing.inserted.Load(),
		DocumentsDeleted:  db.ing.deleted.Load(),
		TxnPages:          db.ing.txnPages.Load(),
		Checkpoints:       db.ing.checkpoints.Load(),
		PagesRetired:      db.ing.pagesRetired.Load(),
		PagesReclaimed:    db.ing.pagesReclaimed.Load(),
		SpoolRuns:         db.ing.spoolRuns.Load(),
		SpoolRunsLeaked:   db.ing.spoolRunsLeaked.Load(),
		SpoolPagesFreed:   db.ing.spoolPagesFreed.Load(),
		SnapshotsPinned:   db.ing.snapshotsPinned.Load(),
	}
}

// IndexMetrics returns the B+tree traversal counters shared by the
// locator, tag and value indices.
func (db *DB) IndexMetrics() btree.MetricsSnapshot { return db.idxMetrics.Snapshot() }

// TraceCounters snapshots the combined pool and index counters in the
// form the observability layer consumes. Reading it is a handful of
// atomic loads — no pages are touched, so it never perturbs what it
// measures.
func (db *DB) TraceCounters() obs.Counters {
	st := db.st.Stats()
	im := db.idxMetrics.Snapshot()
	return obs.Counters{
		Fetches:        st.Fetches,
		Hits:           st.Hits,
		PhysicalReads:  st.PhysicalReads,
		PhysicalWrites: st.PhysicalWrites,
		NodeVisits:     im.NodeVisits,
		LeafScans:      im.LeafScans,
	}
}

// NewTracer builds an enabled query tracer wired to this database's
// counters. The caller typically ResetStats first, passes the tracer
// in the run's options, and verifies the finished trace against
// TraceCounters — the exactness invariant of DESIGN.md "Observability".
func (db *DB) NewTracer(name string) *obs.Tracer {
	return obs.New(name, db.TraceCounters)
}

// RegisterMetrics exports the database's storage health into r as
// scrape-time callback families: the pool's cumulative I/O counters,
// derived hit-ratio and occupancy gauges, the B+tree traversal
// counters, and the write path's WAL/ingest/snapshot counters.
// Callbacks read the same atomic counters Stats does, so registration
// adds no per-operation cost; re-registration (a second engine over
// the same DB and registry) is a no-op. Nil-safe.
func (db *DB) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	st := db.st
	r.CounterFunc("pool_fetches", "Logical page reads (buffer pool fetch calls).",
		func() float64 { return float64(st.Stats().Fetches) })
	r.CounterFunc("pool_hits", "Fetches served from the buffer pool.",
		func() float64 { return float64(st.Stats().Hits) })
	r.CounterFunc("pool_physical_reads", "Pages read from disk.",
		func() float64 { return float64(st.Stats().PhysicalReads) })
	r.CounterFunc("pool_physical_writes", "Pages written to disk.",
		func() float64 { return float64(st.Stats().PhysicalWrites) })
	r.CounterFunc("pool_evictions", "Pages evicted from the buffer pool.",
		func() float64 { return float64(st.Stats().Evictions) })
	r.CounterFunc("pool_freed_pages", "Pages returned to the allocator for reuse.",
		func() float64 { return float64(st.Stats().FreedPages) })
	r.CounterFunc("pool_checksum_errors", "Page reads rejected by the slot checksum.",
		func() float64 { return float64(st.Stats().ChecksumErrors) })
	r.GaugeFunc("pool_hit_ratio", "Fraction of fetches served from the pool (1 when idle).",
		func() float64 { return st.Stats().HitRate() })
	r.GaugeFunc("pool_occupancy_pages", "Pages currently resident in the buffer pool.",
		func() float64 { return float64(st.Occupancy()) })
	r.GaugeFunc("pool_capacity_pages", "Buffer pool capacity in pages.",
		func() float64 { return float64(st.PoolPages()) })
	r.CounterFunc("index_node_visits", "B+tree interior/leaf nodes visited across all indices.",
		func() float64 { return float64(db.idxMetrics.Snapshot().NodeVisits) })
	r.CounterFunc("index_leaf_scans", "B+tree leaf records scanned across all indices.",
		func() float64 { return float64(db.idxMetrics.Snapshot().LeafScans) })
	if st.CodecName() != "" {
		r.CounterFunc("page_codec_uncompressed_bytes", "Uncompressed size of pages written through the page codec.",
			func() float64 { return float64(st.Stats().UncompressedBytes) })
		r.CounterFunc("page_codec_compressed_bytes", "On-disk payload written through the page codec.",
			func() float64 { return float64(st.Stats().CompressedBytes) })
		r.GaugeFunc("page_codec_ratio", "Compressed/uncompressed byte ratio of page writes (1 when idle).",
			func() float64 { return st.Stats().CompressionRatio() })
	}
	if db.wal != nil {
		wl := db.wal
		r.CounterFunc("wal_appends", "WAL records appended (all types).",
			func() float64 { return float64(wl.Stats().Appends) })
		r.CounterFunc("wal_appended_bytes", "Framed bytes appended to the WAL.",
			func() float64 { return float64(wl.Stats().AppendedBytes) })
		r.CounterFunc("wal_commits", "Transactions committed to the WAL.",
			func() float64 { return float64(wl.Stats().Commits) })
		r.CounterFunc("wal_fsyncs", "WAL fsyncs issued (group commit keeps this below commits).",
			func() float64 { return float64(wl.Stats().Fsyncs) })
		r.CounterFunc("wal_sync_waits", "WAL sync calls satisfied by another goroutine's fsync.",
			func() float64 { return float64(wl.Stats().SyncWaits) })
		r.GaugeFunc("wal_size_bytes", "Current WAL length in bytes (resets at checkpoints).",
			func() float64 { return float64(wl.Size()) })
	}
	r.CounterFunc("ingest_documents_inserted", "Documents added through the durable ingest path.",
		func() float64 { return float64(db.ing.inserted.Load()) })
	r.CounterFunc("ingest_documents_deleted", "Documents removed through the durable ingest path.",
		func() float64 { return float64(db.ing.deleted.Load()) })
	r.CounterFunc("ingest_txn_pages", "Fresh pages written by ingest transactions.",
		func() float64 { return float64(db.ing.txnPages.Load()) })
	r.CounterFunc("ingest_checkpoints", "Checkpoints taken (WAL resets).",
		func() float64 { return float64(db.ing.checkpoints.Load()) })
	r.CounterFunc("pages_retired", "Superseded pages queued for epoch-gated reclamation.",
		func() float64 { return float64(db.ing.pagesRetired.Load()) })
	r.CounterFunc("pages_reclaimed", "Retired pages returned to the allocator.",
		func() float64 { return float64(db.ing.pagesReclaimed.Load()) })
	r.GaugeFunc("storage_epoch", "Epoch of the reader-visible head state.",
		func() float64 { return float64(db.head.Load().epoch) })
	r.GaugeFunc("snapshots_pinned", "Currently open snapshots.",
		func() float64 { return float64(db.ing.snapshotsPinned.Load()) })
	r.CounterFunc("spool_runs", "Spill runs started by blocking operators.",
		func() float64 { return float64(db.ing.spoolRuns.Load()) })
	r.CounterFunc("spool_runs_leaked", "Spools reclaimed by the garbage collector instead of Close.",
		func() float64 { return float64(db.ing.spoolRunsLeaked.Load()) })
	r.CounterFunc("spool_pages_freed", "Scratch pages released by spools and tree spills.",
		func() float64 { return float64(db.ing.spoolPagesFreed.Load()) })
}

// DebugStatus is a point-in-time picture of the storage engine's
// runtime state — what /debug/storage serves. Unlike IngestCounters
// (cumulative activity), this is the *current* state: which epochs are
// pinned, how much WAL is unsynced, what reclamation is waiting on.
type DebugStatus struct {
	// Epoch is the reader-visible head epoch; CommitSeq the newest
	// committed transaction sequence (the writer tip may briefly lead
	// the head while an fsync is in flight).
	Epoch     uint64 `json:"epoch"`
	CommitSeq uint64 `json:"commit_seq"`
	// WALSyncedSeq is the checkpoint/durability watermark: the highest
	// sequence covered by an fsync. WALSizeBytes is the log's current
	// length (resets to 0 at each checkpoint).
	WALSyncedSeq uint64 `json:"wal_synced_seq"`
	WALSizeBytes int64  `json:"wal_size_bytes"`
	// Checkpoints is the cumulative checkpoint count (the correlation
	// counter slow queries diff across their window).
	Checkpoints uint64 `json:"checkpoints"`
	// SnapshotsPinned is the number of open snapshots; PinnedEpochs
	// lists the distinct epochs they hold (ascending) — the oldest one
	// gates reclamation.
	SnapshotsPinned int64    `json:"snapshots_pinned"`
	PinnedEpochs    []uint64 `json:"pinned_epochs,omitempty"`
	// ReclaimSets/ReclaimPages describe the retirement backlog: page
	// batches freed by commits but not yet reusable (snapshot- or
	// durability-gated).
	ReclaimSets  int   `json:"reclaim_sets"`
	ReclaimPages int64 `json:"reclaim_pages"`
	// NumPages is the store's allocated page count.
	NumPages uint32 `json:"num_pages"`
	// JournalSeq/JournalCapacity describe the event journal itself
	// (zero when disabled).
	JournalSeq      uint64 `json:"journal_seq"`
	JournalCapacity int    `json:"journal_capacity"`
}

// DebugStatus snapshots the engine's runtime state for /debug/storage.
// It takes pinMu briefly (to list pins and the reclaim backlog) and
// otherwise reads atomics.
func (db *DB) DebugStatus() DebugStatus {
	ds := DebugStatus{
		Epoch:           db.head.Load().epoch,
		CommitSeq:       db.commitSeq.Load(),
		Checkpoints:     db.ing.checkpoints.Load(),
		SnapshotsPinned: db.ing.snapshotsPinned.Load(),
		NumPages:        db.st.NumPages(),
		JournalSeq:      db.journal.Seq(),
		JournalCapacity: db.journal.Capacity(),
	}
	if db.wal != nil {
		ds.WALSyncedSeq = db.wal.Synced()
		ds.WALSizeBytes = db.wal.Size()
	}
	db.pinMu.Lock()
	for e := range db.pins {
		ds.PinnedEpochs = append(ds.PinnedEpochs, e)
	}
	ds.ReclaimSets = len(db.retired)
	for _, set := range db.retired {
		ds.ReclaimPages += int64(len(set.pages))
	}
	db.pinMu.Unlock()
	sort.Slice(ds.PinnedEpochs, func(i, j int) bool { return ds.PinnedEpochs[i] < ds.PinnedEpochs[j] })
	return ds
}

// ResetStats zeroes the buffer pool and index-traversal counters.
func (db *DB) ResetStats() {
	db.st.ResetStats()
	db.idxMetrics.Reset()
}

// DropCache empties the buffer pool so subsequent measurements start
// cold, after persisting the metadata.
func (db *DB) DropCache() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writeMeta0(db.tip); err != nil {
		return err
	}
	return db.st.DropCache()
}

// Flush persists metadata and all dirty pages (without fsync or WAL
// reset; use Checkpoint for the durable form).
func (db *DB) Flush() error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if err := db.writeMeta0(db.tip); err != nil {
		return err
	}
	return db.st.Flush()
}

// Close checkpoints and closes the database. After a clean Close the
// WAL is empty and the next Open replays nothing.
func (db *DB) Close() error {
	db.writeMu.Lock()
	err := db.checkpointLocked()
	db.writeMu.Unlock()
	var werr error
	if db.wal != nil {
		werr = db.wal.Close()
	}
	return errors.Join(err, werr, db.st.Close())
}
