// Package pagestore implements a paged, disk-backed storage manager with
// a pinned buffer pool. It plays the role that the Shore storage manager
// plays in TIMBER (Sec. 5.1 of the paper): disk and memory management
// for the data, index and metadata managers layered above it.
//
// The store reads and writes fixed-size pages (8 KB by default, the page
// size used in the paper's experiments) through a buffer pool of bounded
// capacity (32 MB in the paper) with LRU replacement. All physical and
// logical I/O is counted, so the experiment harness can report buffer
// behaviour alongside wall-clock time.
//
// The buffer pool is sharded for concurrency: pages hash to one of N
// shards, each with its own mutex, frame table and LRU list, so
// concurrent readers on different shards never contend. Counters are
// atomic. See DESIGN.md "Concurrency model".
//
// Every slot carries a CRC-32C checksum (codec.go), so torn writes from
// a crash surface as checksum errors instead of silently decoded
// garbage; SlotImage/RestoreSlot expose the framed page images a
// write-ahead log needs for redo.
//
// Two record-level abstractions are built on top of raw pages:
// slotted pages (slotted.go) and heap files (heap.go).
package pagestore

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultPageSize is the page size used by the paper's experiments.
const DefaultPageSize = 8192

// DefaultShards is the default buffer pool shard count, lowered for
// pools too small to give every shard MinShardFrames frames.
const DefaultShards = 16

// MinShardFrames is the fewest frames a default-sharded pool gives one
// shard. Eviction is shard-local, so a shard must outlast the deepest
// pin stack one query holds on it (a B+tree descent, a heap page and
// the operators' open cursors); with two-frame shards a small pool
// reported exhaustion while most of its frames were free.
const MinShardFrames = 8

// PageID identifies a page within a store. Pages are numbered densely
// from 0 in allocation order.
type PageID uint32

// InvalidPage is a sentinel PageID that no allocated page ever has.
const InvalidPage = PageID(^uint32(0))

// File is the byte-addressed backing of a Store: the subset of
// *os.File behaviour the buffer pool needs, abstracted so
// crash-injection tests can substitute an implementation that models
// torn writes and lost unsynced data. ReadAt follows io.ReaderAt
// semantics (a short read at the tail returns io.EOF); WriteAt must
// extend the file when writing past its end.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
	Size() (int64, error)
}

// osFile adapts *os.File to the File interface.
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// OSFile adapts an *os.File to the File interface, for callers (the
// WAL, recovery tooling) that layer on the same backing abstraction.
func OSFile(f *os.File) File { return osFile{f} }

// FsyncDir syncs a directory so a just-created, renamed or removed
// entry in it survives a crash. Creating a file and syncing its data
// is not enough — the directory entry itself lives in the parent and
// needs its own fsync before recovery can rely on seeing the file.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("pagestore: fsync dir: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("pagestore: fsync dir %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("pagestore: fsync dir %s: %w", dir, cerr)
	}
	return nil
}

// Options configures a Store.
type Options struct {
	// PageSize is the size of each on-disk page slot in bytes. Defaults
	// to DefaultPageSize. Must be at least 128. The usable in-memory
	// page is slotHeaderLen bytes smaller (see PageSize()).
	PageSize int
	// PoolPages is the buffer pool capacity in pages. Defaults to 4096
	// pages (32 MB at the default page size, matching the paper).
	PoolPages int
	// Shards is the number of buffer pool shards. Defaults to
	// DefaultShards, lowered so each shard holds at least
	// MinShardFrames frames; an explicit count is clamped to PoolPages.
	// Shards: 1 reproduces the single-lock pool exactly (one global
	// LRU).
	Shards int
	// Codec enables per-page compression (see codec.go). Every page
	// write records its compressed and uncompressed byte counts in
	// Stats. Must match the codec (or its absence) the file was
	// created with.
	Codec Codec
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PoolPages == 0 {
		o.PoolPages = 4096
	}
	if o.Shards == 0 {
		o.Shards = min(DefaultShards, o.PoolPages/MinShardFrames)
	}
	if o.Shards > o.PoolPages {
		o.Shards = o.PoolPages
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// Stats counts buffer pool and disk activity since the store was opened
// or since the last ResetStats.
type Stats struct {
	// Fetches is the number of FetchPage calls (logical reads).
	Fetches uint64
	// Hits is the number of fetches satisfied from the pool.
	Hits uint64
	// PhysicalReads is the number of pages read from disk.
	PhysicalReads uint64
	// PhysicalWrites is the number of pages written to disk.
	PhysicalWrites uint64
	// Evictions is the number of pages evicted from the pool.
	Evictions uint64
	// Allocations is the number of pages allocated.
	Allocations uint64
	// FreedPages is the number of pages returned to the allocator with
	// FreePages (whether recycled through the free list or truncated
	// off the file tail).
	FreedPages uint64
	// ChecksumErrors is the number of page reads rejected because the
	// slot checksum did not match its payload — each one is a torn or
	// corrupted page that would previously have decoded silently.
	ChecksumErrors uint64
	// CompressedBytes is the total payload written to disk by page
	// writes under a codec (header plus compressed image, or the full
	// slot for incompressible pages). Zero without a codec.
	CompressedBytes uint64
	// UncompressedBytes is the total uncompressed size of those same
	// page writes; CompressedBytes/UncompressedBytes is the effective
	// write-volume compression ratio.
	UncompressedBytes uint64
}

// HitRate returns the fraction of fetches served from the buffer pool,
// or 1 if there were no fetches.
func (s Stats) HitRate() float64 {
	if s.Fetches == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Fetches)
}

// CompressionRatio returns CompressedBytes/UncompressedBytes, or 1
// when no compressed writes happened.
func (s Stats) CompressionRatio() float64 {
	if s.UncompressedBytes == 0 {
		return 1
	}
	return float64(s.CompressedBytes) / float64(s.UncompressedBytes)
}

func (s Stats) String() string {
	out := fmt.Sprintf("fetches=%d hits=%d (%.1f%%) reads=%d writes=%d evictions=%d allocs=%d",
		s.Fetches, s.Hits, 100*s.HitRate(), s.PhysicalReads, s.PhysicalWrites, s.Evictions, s.Allocations)
	if s.UncompressedBytes > 0 {
		out += fmt.Sprintf(" codec=%d/%d (%.1f%%)", s.CompressedBytes, s.UncompressedBytes, 100*s.CompressionRatio())
	}
	if s.ChecksumErrors > 0 {
		out += fmt.Sprintf(" crc-errors=%d", s.ChecksumErrors)
	}
	return out
}

// counters is the atomic backing for Stats. Counters are updated with
// atomic adds on the fetch path, so concurrent readers never serialize
// on a stats lock; Stats() takes per-counter snapshots (individually
// exact, though two counters loaded mid-burst may be from instants a
// few operations apart).
type counters struct {
	fetches           atomic.Uint64
	hits              atomic.Uint64
	physicalReads     atomic.Uint64
	physicalWrites    atomic.Uint64
	evictions         atomic.Uint64
	allocations       atomic.Uint64
	freedPages        atomic.Uint64
	checksumErrors    atomic.Uint64
	compressedBytes   atomic.Uint64
	uncompressedBytes atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Fetches:           c.fetches.Load(),
		Hits:              c.hits.Load(),
		PhysicalReads:     c.physicalReads.Load(),
		PhysicalWrites:    c.physicalWrites.Load(),
		Evictions:         c.evictions.Load(),
		Allocations:       c.allocations.Load(),
		FreedPages:        c.freedPages.Load(),
		ChecksumErrors:    c.checksumErrors.Load(),
		CompressedBytes:   c.compressedBytes.Load(),
		UncompressedBytes: c.uncompressedBytes.Load(),
	}
}

func (c *counters) reset() {
	c.fetches.Store(0)
	c.hits.Store(0)
	c.physicalReads.Store(0)
	c.physicalWrites.Store(0)
	c.evictions.Store(0)
	c.allocations.Store(0)
	c.freedPages.Store(0)
	c.checksumErrors.Store(0)
	c.compressedBytes.Store(0)
	c.uncompressedBytes.Store(0)
}

// ErrPoolExhausted is returned when every frame in the buffer pool
// shard a page hashes to is pinned and the page must be brought in.
var ErrPoolExhausted = errors.New("pagestore: buffer pool exhausted (all frames pinned)")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("pagestore: store is closed")

// ErrChecksum is wrapped by page-read errors caused by a slot whose
// CRC does not match its payload (a torn or corrupted write).
var ErrChecksum = errors.New("pagestore: page checksum mismatch")

// Page is a pinned page in the buffer pool. The caller may read and
// write Data freely while the page is pinned and must call
// Store.Unpin when done, passing dirty=true if Data was modified.
type Page struct {
	id    PageID
	frame *frame
}

// ID returns the page's identifier.
func (p *Page) ID() PageID { return p.id }

// Data returns the page's in-memory bytes. The slice is valid only while
// the page is pinned.
func (p *Page) Data() []byte { return p.frame.data }

type frame struct {
	id PageID
	// slot is the full on-disk slot image backing the frame; data
	// aliases slot past the slotHeaderLen framing header. Raw slots
	// read and write directly through the frame with no intermediate
	// copy; only actually-compressed slots touch scratch buffers.
	slot    []byte
	data    []byte
	pins    int
	dirty   bool
	lruElem *list.Element // non-nil iff pins == 0 (frame is evictable)
}

// shard is one independently locked slice of the buffer pool. Pages
// hash to shards by ID, so a shard caches only pages with
// id % nshards == index, up to cap frames, evicting LRU within itself.
type shard struct {
	mu     sync.Mutex
	frames map[PageID]*frame
	lru    *list.List // of *frame; front = least recently used
	cap    int
	// free holds frames DropCache emptied, buffers included; freeFrame
	// takes from it before allocating, so a cold-cache run refills the
	// pool without re-allocating it.
	free []*frame
}

// Store is a paged file with a sharded buffer pool. It is safe for
// concurrent use by multiple goroutines: each page operation takes only
// its shard's lock, disk I/O uses positioned reads/writes, and the
// counters are atomic. Whole-pool operations (DropCache, Flush, Close)
// lock every shard. Flush and Close write committed pages
// only: while they run, a committed page may change only under the
// caller's writer lock, and a scratch heap's appender (NewScratchHeap)
// may keep filling its pinned tail. DropCache must not race with
// writers.
type Store struct {
	file     File
	opts     Options
	shards   []shard
	numPages atomic.Uint32
	allocMu  sync.Mutex // serializes page-ID assignment and the free list
	// freeList holds interior page IDs returned by FreePages, popped
	// LIFO by Allocate before the file is extended. In-memory only: a
	// crash forgets it and the pages become unreferenced garbage until
	// the next offline rebuild reclaims them.
	freeList []PageID
	stats    counters
	closed   atomic.Bool

	// codec, when non-nil, compresses page images on write and expands
	// them on read; usable is the in-memory page size the layers above
	// see (opts.PageSize minus the slot header). slotBufs pools
	// scratch buffers for compress output and staged compressed
	// payloads (raw slots move through the frame itself).
	codec    Codec
	usable   int
	slotBufs sync.Pool
	// classes holds every page that is not a plain codec page: raw
	// (SetRawPage) or scratch (NewScratchHeap). Both are written with
	// the raw flag, so reads — which dispatch on the slot's own flag
	// byte — need no marking. classMu is taken inside shard locks,
	// never around one.
	classMu sync.RWMutex
	classes map[PageID]pageClass
}

// pageClass is a page's write policy. Pages absent from Store.classes
// are committed pages, compressed when the store has a codec.
type pageClass uint8

const (
	// classRaw pages are committed pages exempt from the codec.
	classRaw pageClass = iota + 1
	// classScratch pages hold temporary records (spills, sort runs).
	// They are codec-exempt and never part of a committed state, so only
	// eviction writes them back (the pool may re-read them); Flush and
	// Close skip them.
	classScratch
)

// Create creates (or truncates) the file at path and opens a store over
// it with the given options. The parent directory is fsynced so the
// new file's directory entry is durable before the store is used.
func Create(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create: %w", err)
	}
	if err := FsyncDir(filepath.Dir(path)); err != nil {
		return nil, errors.Join(fmt.Errorf("pagestore: create: %w", err), f.Close())
	}
	return newStore(osFile{f}, opts, 0)
}

// CreateOn opens a store over a caller-supplied File, assuming an
// empty (freshly truncated) backing. Crash-injection tests use it to
// run the pool over a fault-modeling File.
func CreateOn(f File, opts Options) (*Store, error) {
	return newStore(f, opts, 0)
}

// Open opens an existing store file at path. The page size in opts must
// match the size used at creation. The page count is derived from the
// file length rounded down to whole slots: a crash can leave a partial
// slot at the tail (a torn append), which recovery discards rather
// than refusing to open.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open: %w", err)
	}
	return OpenOn(osFile{f}, opts)
}

// OpenOn opens a store over an existing caller-supplied File. Like
// newStore, it closes f on error.
func OpenOn(f File, opts Options) (*Store, error) {
	size, err := f.Size()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pagestore: open: %w", err), f.Close())
	}
	o := opts.withDefaults()
	return newStore(f, opts, uint32(size/int64(o.PageSize)))
}

// CreateTemp creates a store backed by a temporary file in the system
// temp directory that is unlinked immediately, so a crash leaves no
// orphan behind. It is the usual way benches and tests obtain a store.
func CreateTemp(opts Options) (*Store, error) {
	return CreateTempIn(os.TempDir(), opts)
}

// CreateTempIn creates a store backed by a temporary file in dir —
// typically next to the database it spills for, so scratch I/O lands
// on the same filesystem. The file is unlinked as soon as it is open
// (the fd keeps it alive until Close) and the directory is fsynced
// afterwards, so recovery after a crash never sees a half-created or
// orphaned scratch file.
func CreateTempIn(dir string, opts Options) (*Store, error) {
	f, err := os.CreateTemp(dir, "timber-scratch-*.db")
	if err != nil {
		return nil, fmt.Errorf("pagestore: create temp: %w", err)
	}
	name := f.Name()
	if err := os.Remove(name); err != nil {
		return nil, errors.Join(fmt.Errorf("pagestore: create temp: %w", err), f.Close())
	}
	if err := FsyncDir(dir); err != nil {
		return nil, errors.Join(fmt.Errorf("pagestore: create temp: %w", err), f.Close())
	}
	return newStore(osFile{f}, opts, 0)
}

func newStore(f File, opts Options, numPages uint32) (*Store, error) {
	o := opts.withDefaults()
	if o.PageSize < 128 {
		return nil, errors.Join(fmt.Errorf("pagestore: page size %d too small (min 128)", o.PageSize), f.Close())
	}
	if o.PoolPages < 1 {
		return nil, errors.Join(errors.New("pagestore: pool must hold at least one page"), f.Close())
	}
	s := &Store{file: f, opts: o, shards: make([]shard, o.Shards), codec: o.Codec,
		classes: make(map[PageID]pageClass)}
	s.usable = o.PageSize - slotHeaderLen
	// Compress output can exceed the input on incompressible data;
	// give the scratch buffers headroom so Compress rarely grows.
	scratch := o.PageSize + o.PageSize/8 + 64
	s.slotBufs.New = func() any {
		b := make([]byte, 0, scratch)
		return &b
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.frames = make(map[PageID]*frame)
		sh.lru = list.New()
		// Shard i caches pages with id % Shards == i; its capacity is
		// the number of such ids among any PoolPages consecutive dense
		// ids, so a fully pinned dense working set fills the pool
		// exactly as the single-lock pool did.
		sh.cap = o.PoolPages / o.Shards
		if i < o.PoolPages%o.Shards {
			sh.cap++
		}
	}
	s.numPages.Store(numPages)
	return s, nil
}

// PageSize returns the usable in-memory page size in bytes: the
// configured slot size minus the checksummed framing header.
func (s *Store) PageSize() int { return s.usable }

// SlotSize returns the on-disk bytes per page (the configured
// PageSize). It exceeds PageSize() by the slot header; file size is
// always NumPages * SlotSize.
func (s *Store) SlotSize() int { return s.opts.PageSize }

// SetRawPage excludes a page from the store's codec: future writes of
// it store the raw image (slot flag raw) instead of compressing. Slots
// are fixed-size, so the codec trims write I/O bytes, never the file —
// pages whose payloads are already tightly encoded (varint-packed
// records) gain nothing from a second pass, while every cold fetch of
// them would pay the decompression. Reads need no marking: each slot
// self-describes via its flag byte. Heaps mark their own pages.
func (s *Store) SetRawPage(id PageID) {
	s.classMu.Lock()
	s.classes[id] = classRaw
	s.classMu.Unlock()
}

// class returns the page's write policy (0 for a plain codec page).
func (s *Store) class(id PageID) pageClass {
	s.classMu.RLock()
	c := s.classes[id]
	s.classMu.RUnlock()
	return c
}

// dropClassesFrom forgets the class of every page at or past n, so a
// reused id starts as a plain codec page.
func (s *Store) dropClassesFrom(n uint32) {
	s.classMu.Lock()
	for id := range s.classes {
		if uint32(id) >= n {
			delete(s.classes, id)
		}
	}
	s.classMu.Unlock()
}

// PoolPages returns the buffer pool capacity in pages.
func (s *Store) PoolPages() int { return s.opts.PoolPages }

// Shards returns the number of buffer pool shards.
func (s *Store) Shards() int { return len(s.shards) }

// NumPages returns the number of allocated pages.
func (s *Store) NumPages() uint32 { return s.numPages.Load() }

func (s *Store) shardFor(id PageID) *shard {
	return &s.shards[uint32(id)%uint32(len(s.shards))]
}

// lockAll acquires every shard lock in index order (the only multi-lock
// order used, so whole-pool operations cannot deadlock with each other;
// page operations hold a single shard lock at a time).
func (s *Store) lockAll() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
}

func (s *Store) unlockAll() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Unlock()
	}
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats { return s.stats.snapshot() }

// Occupancy returns the number of pages currently resident in the
// buffer pool. It takes each shard lock briefly in turn, so the result
// is a consistent per-shard sum but may straddle concurrent fetches —
// fine for the gauge it feeds, wrong for invariant checks.
func (s *Store) Occupancy() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// ResetStats zeroes the I/O counters. The buffer pool contents are left
// untouched; use DropCache to also empty the pool (cold-cache runs).
func (s *Store) ResetStats() { s.stats.reset() }

// DropCache flushes all dirty pages and empties the buffer pool, so the
// next fetches hit the disk. It fails if any page is still pinned. The
// emptied frames keep their buffers, and the next fetches reuse them.
func (s *Store) DropCache() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		for id, fr := range s.shards[i].frames {
			if fr.pins > 0 {
				return fmt.Errorf("pagestore: drop cache: page %d still pinned", id)
			}
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		for id, fr := range sh.frames {
			if fr.dirty {
				if err := s.writeFrame(fr); err != nil {
					return err
				}
			}
			if fr.lruElem != nil {
				sh.lru.Remove(fr.lruElem)
			}
			delete(sh.frames, id)
			sh.free = append(sh.free, fr)
		}
	}
	return nil
}

// Allocate returns a zeroed page, pinned. Page IDs come from the free
// list when FreePages has returned any, otherwise a fresh ID extends
// the file.
func (s *Store) Allocate() (*Page, error) { return s.allocate(0) }

// allocate is Allocate for a page of the given class. The class is
// set under the shard lock before the frame is published, so Flush
// never sees a scratch page unmarked.
func (s *Store) allocate(class pageClass) (*Page, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	var id PageID
	reused := false
	if n := len(s.freeList); n > 0 {
		id = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
		reused = true
	} else {
		id = PageID(s.numPages.Load())
	}
	sh := s.shardFor(id)
	// Same transient-exhaustion retry as Fetch: concurrent fetchers may
	// briefly pin every frame in the new page's shard.
	for attempt := 0; ; attempt++ {
		p, err := s.allocShard(sh, id, reused, class)
		if err != ErrPoolExhausted || !pinWait(attempt) {
			if err != nil && reused {
				s.freeList = append(s.freeList, id)
			}
			return p, err
		}
	}
}

// allocShard is one attempt of Allocate under the shard lock; the
// caller holds allocMu.
func (s *Store) allocShard(sh *shard, id PageID, reused bool, class pageClass) (*Page, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, err := s.freeFrame(sh, id)
	if err != nil {
		return nil, err
	}
	// A new page must read as zeros (reused victim buffers hold stale
	// images; fetchShard needs no such clear — readInto covers every
	// byte).
	clear(fr.data)
	clear(fr.slot[:slotHeaderLen])
	if !reused {
		s.numPages.Add(1)
	}
	s.stats.allocations.Add(1)
	if class != 0 {
		s.classMu.Lock()
		s.classes[id] = class
		s.classMu.Unlock()
	}
	fr.pins = 1
	fr.dirty = true // a new page must eventually reach disk
	sh.frames[id] = fr
	return &Page{id: id, frame: fr}, nil
}

// FreePages returns pages to the allocator: their frames are dropped
// from the pool without write-back, their page class is cleared,
// and the IDs become available for reuse. IDs that form a contiguous
// run at the file tail (counting previously freed pages) shorten the
// file, so pure-scratch workloads give their disk back; interior IDs
// go on the in-memory free list and are handed out again by Allocate.
// It fails without freeing anything if any of the pages is pinned.
func (s *Store) FreePages(ids []PageID) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(ids) == 0 {
		return nil
	}
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	np := s.numPages.Load()
	for _, id := range ids {
		if uint32(id) >= np {
			return fmt.Errorf("pagestore: free: page %d out of range (have %d)", id, np)
		}
		sh := s.shardFor(id)
		if fr, ok := sh.frames[id]; ok && fr.pins > 0 {
			return fmt.Errorf("pagestore: free: page %d still pinned", id)
		}
	}
	for _, id := range ids {
		sh := s.shardFor(id)
		if fr, ok := sh.frames[id]; ok {
			if fr.lruElem != nil {
				sh.lru.Remove(fr.lruElem)
			}
			delete(sh.frames, id)
		}
	}
	s.classMu.Lock()
	for _, id := range ids {
		delete(s.classes, id)
	}
	s.classMu.Unlock()
	s.stats.freedPages.Add(uint64(len(ids)))

	// Merge the new IDs with the existing free list and peel the
	// contiguous run at the file tail off the merged set.
	merged := append(slices.Clone(s.freeList), ids...)
	slices.Sort(merged)
	merged = slices.Compact(merged)
	cut := np
	for len(merged) > 0 && uint32(merged[len(merged)-1]) == cut-1 {
		merged = merged[:len(merged)-1]
		cut--
	}
	s.freeList = merged
	if cut < np {
		if err := s.file.Truncate(int64(cut) * int64(s.opts.PageSize)); err != nil {
			return fmt.Errorf("pagestore: free: %w", err)
		}
		s.numPages.Store(cut)
	}
	return nil
}

// Fetch returns the page with the given ID, pinned. The caller must
// Unpin it when finished. Fetch is safe for concurrent use; two
// goroutines fetching the same uncached page serialize on its shard, so
// the page is read from disk exactly once.
func (s *Store) Fetch(id PageID) (*Page, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if id >= PageID(s.numPages.Load()) {
		return nil, fmt.Errorf("pagestore: fetch: page %d out of range (have %d)", id, s.numPages.Load())
	}
	s.stats.fetches.Add(1)
	sh := s.shardFor(id)
	// A shard whose frames are all pinned is almost always a transient
	// state — concurrent fetchers hold pins only across a copy — so
	// yield and retry before surfacing ErrPoolExhausted. The counters
	// stay exact: the fetch is counted once above, and hit/read are
	// only counted on the attempt that acquires a frame.
	for attempt := 0; ; attempt++ {
		p, err := s.fetchShard(sh, id)
		if err != ErrPoolExhausted || !pinWait(attempt) {
			return p, err
		}
	}
}

// fetchShard is one attempt of Fetch under the shard lock.
func (s *Store) fetchShard(sh *shard, id PageID) (*Page, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr, ok := sh.frames[id]; ok {
		s.stats.hits.Add(1)
		if fr.lruElem != nil {
			sh.lru.Remove(fr.lruElem)
			fr.lruElem = nil
		}
		fr.pins++
		return &Page{id: id, frame: fr}, nil
	}
	fr, err := s.freeFrame(sh, id)
	if err != nil {
		return nil, err
	}
	if err := s.readInto(fr); err != nil {
		return nil, err
	}
	s.stats.physicalReads.Add(1)
	fr.pins = 1
	sh.frames[id] = fr
	return &Page{id: id, frame: fr}, nil
}

// pinWait paces retries after an all-frames-pinned attempt: mostly a
// scheduler yield so the pin holders can run (essential on a single
// CPU), a short sleep every 64th try. It reports false once the budget
// is spent — generous for pin churn, bounded so a genuine pin leak
// still fails with ErrPoolExhausted instead of spinning forever.
func pinWait(attempt int) bool {
	const maxAttempts = 4096
	if attempt >= maxAttempts {
		return false
	}
	if attempt%64 == 63 {
		time.Sleep(50 * time.Microsecond)
	} else {
		runtime.Gosched()
	}
	return true
}

// Unpin releases one pin on the page. dirty records whether the caller
// modified the page's data; dirty pages are written back on eviction,
// flush or close. Unpinning an unpinned page panics: that is a
// use-after-release programming error, not a runtime condition.
func (s *Store) Unpin(p *Page, dirty bool) {
	if err := s.Release(p, dirty); err != nil {
		panic(err.Error())
	}
}

// Release is Unpin with an error return instead of a panic: releasing
// an unpinned page reports the fault to the caller. Long-lived cursors
// (B+tree iterators, heap readers) use Release so their Close methods
// can surface a pin-accounting fault to the query instead of tearing
// the process down mid-scan.
func (s *Store) Release(p *Page, dirty bool) error {
	sh := s.shardFor(p.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr := p.frame
	if fr.pins <= 0 {
		return fmt.Errorf("pagestore: unpin of unpinned page %d", p.id)
	}
	fr.dirty = fr.dirty || dirty
	fr.pins--
	if fr.pins == 0 {
		fr.lruElem = sh.lru.PushBack(fr)
	}
	return nil
}

// freeFrame returns a frame for the given new page id, evicting the
// shard's least recently used unpinned page if the shard is full.
// Caller holds sh.mu.
func (s *Store) freeFrame(sh *shard, id PageID) (*frame, error) {
	if len(sh.frames) < sh.cap {
		// A dropped frame's buffer is reused like a victim's (see below).
		if n := len(sh.free); n > 0 {
			fr := sh.free[n-1]
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
			*fr = frame{id: id, slot: fr.slot, data: fr.data}
			return fr, nil
		}
		fr := &frame{id: id}
		fr.slot = make([]byte, s.opts.PageSize)
		fr.data = fr.slot[slotHeaderLen : slotHeaderLen+s.usable]
		return fr, nil
	}
	el := sh.lru.Front()
	if el == nil {
		return nil, ErrPoolExhausted
	}
	victim := el.Value.(*frame)
	sh.lru.Remove(el)
	victim.lruElem = nil
	if victim.dirty {
		if err := s.writeFrame(victim); err != nil {
			return nil, err
		}
	}
	delete(sh.frames, victim.id)
	s.stats.evictions.Add(1)
	// The victim's buffer is reused as is: readInto overwrites (or
	// zero-fills) every byte, and allocShard clears it for fresh pages.
	victim.id = id
	victim.pins = 0
	victim.dirty = false
	return victim, nil
}

func (s *Store) readInto(fr *frame) error {
	off := int64(fr.id) * int64(s.opts.PageSize)
	// Read the whole slot straight into the frame's backing buffer. A
	// raw flag means the page data is already in place (data aliases the
	// slot payload) — the common case — which costs exactly one
	// positioned read. A hole (all-zero header, e.g. a short read past
	// the written tail) is a zero page with nothing to checksum.
	slot := fr.slot
	n, err := s.file.ReadAt(slot, off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("pagestore: read page %d: %w", fr.id, err)
	}
	clear(slot[n:])
	flag, clen, crc := slotHeader(slot)
	if flag == slotFlagRaw && clen == 0 && crc == 0 {
		clear(fr.data)
		return nil
	}
	switch flag {
	case slotFlagRaw:
		if clen != s.usable {
			return fmt.Errorf("pagestore: read page %d: corrupt raw slot length %d (want %d)", fr.id, clen, s.usable)
		}
		if got := slotCRC(fr.data); got != crc {
			s.stats.checksumErrors.Add(1)
			return fmt.Errorf("pagestore: read page %d: %w (stored %08x, computed %08x)", fr.id, ErrChecksum, crc, got)
		}
		return nil
	case slotFlagCompressed:
		if s.codec == nil {
			return fmt.Errorf("pagestore: read page %d: compressed slot in a store with no codec", fr.id)
		}
		if clen <= 0 || clen > s.usable {
			return fmt.Errorf("pagestore: read page %d: corrupt compressed length %d", fr.id, clen)
		}
		payload := slot[slotHeaderLen : slotHeaderLen+clen]
		if got := slotCRC(payload); got != crc {
			s.stats.checksumErrors.Add(1)
			return fmt.Errorf("pagestore: read page %d: %w (stored %08x, computed %08x)", fr.id, ErrChecksum, crc, got)
		}
		// The compressed payload overlaps the decompress destination, so
		// stage it in a scratch buffer first.
		sp := s.slotBufs.Get().(*[]byte)
		scratch := append((*sp)[:0], payload...)
		derr := s.codec.Decompress(fr.data, scratch)
		*sp = scratch
		s.slotBufs.Put(sp)
		if derr != nil {
			return fmt.Errorf("pagestore: read page %d: %w", fr.id, derr)
		}
		return nil
	default:
		return fmt.Errorf("pagestore: read page %d: corrupt slot flag %d", fr.id, flag)
	}
}

func (s *Store) writeFrame(fr *frame) error {
	off := int64(fr.id) * int64(s.opts.PageSize)
	if s.codec != nil && s.class(fr.id) == 0 {
		sp := s.slotBufs.Get().(*[]byte)
		slot := append((*sp)[:0], make([]byte, slotHeaderLen)...)
		slot = s.codec.Compress(slot, fr.data)
		clen := len(slot) - slotHeaderLen
		if clen < s.usable {
			putSlotHeader(slot, slotFlagCompressed, clen, slotCRC(slot[slotHeaderLen:]))
			_, err := s.file.WriteAt(slot, off)
			written := len(slot)
			*sp = slot
			s.slotBufs.Put(sp)
			if err != nil {
				return fmt.Errorf("pagestore: write page %d: %w", fr.id, err)
			}
			s.stats.physicalWrites.Add(1)
			s.stats.compressedBytes.Add(uint64(written))
			s.stats.uncompressedBytes.Add(uint64(s.usable))
			fr.dirty = false
			return nil
		}
		// Incompressible: fall through to the raw write so a slot never
		// overflows. It still counts toward the codec's ratio — the codec
		// handled the page, the page just did not shrink.
		*sp = slot
		s.slotBufs.Put(sp)
		s.stats.compressedBytes.Add(uint64(s.opts.PageSize))
		s.stats.uncompressedBytes.Add(uint64(s.usable))
	}
	// Raw write: the frame's backing buffer IS the on-disk slot (data
	// aliases its payload), so stamp the header and write it out with no
	// copy. Codec-exempt pages skip the codec counters — the ratio
	// describes the pages the codec handles.
	putSlotHeader(fr.slot, slotFlagRaw, s.usable, slotCRC(fr.data))
	if _, err := s.file.WriteAt(fr.slot, off); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", fr.id, err)
	}
	s.stats.physicalWrites.Add(1)
	fr.dirty = false
	return nil
}

// SlotImage returns the framed on-disk image (header plus payload) the
// page's current in-memory contents would be written as — the byte
// string a physical redo log records so recovery can recreate the page
// with RestoreSlot. The image is freshly allocated and checksummed;
// compressible pages under a codec return the compressed form.
func (s *Store) SlotImage(id PageID) ([]byte, error) {
	p, err := s.Fetch(id)
	if err != nil {
		return nil, err
	}
	defer s.Unpin(p, false)
	fr := p.frame
	if s.codec != nil && s.class(id) == 0 {
		buf := make([]byte, slotHeaderLen, s.opts.PageSize+s.opts.PageSize/8+64)
		buf = s.codec.Compress(buf, fr.data)
		if clen := len(buf) - slotHeaderLen; clen < s.usable {
			putSlotHeader(buf, slotFlagCompressed, clen, slotCRC(buf[slotHeaderLen:]))
			return buf, nil
		}
	}
	out := make([]byte, slotHeaderLen+s.usable)
	copy(out[slotHeaderLen:], fr.data)
	putSlotHeader(out, slotFlagRaw, s.usable, slotCRC(out[slotHeaderLen:]))
	return out, nil
}

// ValidateSlotImage checks the framing and checksum of a slot image
// (as produced by SlotImage) against the given on-disk slot size. It
// does not touch any store.
func ValidateSlotImage(img []byte, slotSize int) error {
	if len(img) < slotHeaderLen {
		return fmt.Errorf("pagestore: slot image of %d bytes is shorter than its header", len(img))
	}
	flag, clen, crc := slotHeader(img)
	usable := slotSize - slotHeaderLen
	switch flag {
	case slotFlagRaw:
		if clen != usable || len(img) != slotHeaderLen+usable {
			return fmt.Errorf("pagestore: raw slot image length %d/%d (want %d)", clen, len(img), usable)
		}
	case slotFlagCompressed:
		if clen <= 0 || clen > usable || len(img) != slotHeaderLen+clen {
			return fmt.Errorf("pagestore: compressed slot image length %d/%d", clen, len(img))
		}
	default:
		return fmt.Errorf("pagestore: slot image has corrupt flag %d", flag)
	}
	if got := slotCRC(img[slotHeaderLen:]); got != crc {
		return fmt.Errorf("pagestore: slot image %w (stored %08x, computed %08x)", ErrChecksum, crc, got)
	}
	return nil
}

// RestoreSlot writes a framed slot image (validated first) directly to
// the page's on-disk slot, dropping any cached frame, and extends the
// page count if the image lands past the current tail. Recovery replay
// uses it to reapply logged page images; it must not race with queries
// on the same store.
func (s *Store) RestoreSlot(id PageID, img []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := ValidateSlotImage(img, s.opts.PageSize); err != nil {
		return fmt.Errorf("pagestore: restore page %d: %w", id, err)
	}
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	sh := s.shardFor(id)
	sh.mu.Lock()
	if fr, ok := sh.frames[id]; ok {
		if fr.pins > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("pagestore: restore page %d: still pinned", id)
		}
		if fr.lruElem != nil {
			sh.lru.Remove(fr.lruElem)
		}
		delete(sh.frames, id)
	}
	sh.mu.Unlock()
	if _, err := s.file.WriteAt(img, int64(id)*int64(s.opts.PageSize)); err != nil {
		return fmt.Errorf("pagestore: restore page %d: %w", id, err)
	}
	s.stats.physicalWrites.Add(1)
	if uint32(id) >= s.numPages.Load() {
		s.numPages.Store(uint32(id) + 1)
	}
	if i := slices.Index(s.freeList, id); i >= 0 {
		s.freeList = slices.Delete(s.freeList, i, i+1)
	}
	return nil
}

// SetNumPages declares the authoritative allocated-page count, as
// recorded by committed metadata. Recovery calls it after replay: a
// crash can leave the file longer than the committed state (allocated
// but never-committed tail pages, or a torn final slot), which is
// trimmed away, or shorter (holes read as zero pages). Frames at or
// past the new count are dropped; it fails if any of them is pinned.
func (s *Store) SetNumPages(n uint32) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.allocMu.Lock()
	defer s.allocMu.Unlock()
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		for id, fr := range s.shards[i].frames {
			if uint32(id) >= n {
				if fr.pins > 0 {
					return fmt.Errorf("pagestore: set pages: page %d still pinned", id)
				}
			}
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		for id, fr := range sh.frames {
			if uint32(id) < n {
				continue
			}
			if fr.lruElem != nil {
				sh.lru.Remove(fr.lruElem)
			}
			delete(sh.frames, id)
		}
	}
	size, err := s.file.Size()
	if err != nil {
		return fmt.Errorf("pagestore: set pages: %w", err)
	}
	if want := int64(n) * int64(s.opts.PageSize); size > want {
		if err := s.file.Truncate(want); err != nil {
			return fmt.Errorf("pagestore: set pages: %w", err)
		}
	}
	s.freeList = slices.DeleteFunc(s.freeList, func(id PageID) bool { return uint32(id) >= n })
	s.dropClassesFrom(n)
	s.numPages.Store(n)
	return nil
}

// extendFile pads the file out to the full slot of the last allocated
// page. Compressed writes cover only their payload, so without the pad
// a reopened file could read the final slot short. Raw writes always
// cover whole slots, so stores without a codec never need the pad.
func (s *Store) extendFile() error {
	if s.codec == nil {
		return nil
	}
	want := int64(s.numPages.Load()) * int64(s.opts.PageSize)
	size, err := s.file.Size()
	if err != nil {
		return fmt.Errorf("pagestore: extend: %w", err)
	}
	if size >= want {
		return nil
	}
	if err := s.file.Truncate(want); err != nil {
		return fmt.Errorf("pagestore: extend: %w", err)
	}
	return nil
}

// Flush writes every dirty committed page in the pool back to disk and
// syncs the file; pages remain cached. Scratch pages are skipped: they
// are no part of a committed state, and their owner may be writing a
// pinned one. A pinned committed page is written in place, so the
// caller must keep its writers out (storage's checkpoint holds the
// writer lock).
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		for _, fr := range s.shards[i].frames {
			if fr.dirty && s.class(fr.id) != classScratch {
				if err := s.writeFrame(fr); err != nil {
					return err
				}
			}
		}
	}
	if err := s.extendFile(); err != nil {
		return err
	}
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("pagestore: flush: sync: %w", err)
	}
	return nil
}

// Close flushes dirty committed pages (not scratch pages, as Flush)
// and closes the underlying file. It is an error to close a store with
// pinned pages.
func (s *Store) Close() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.lockAll()
	defer s.unlockAll()
	for i := range s.shards {
		for id, fr := range s.shards[i].frames {
			if fr.pins > 0 {
				return fmt.Errorf("pagestore: close: page %d still pinned", id)
			}
		}
	}
	for i := range s.shards {
		for _, fr := range s.shards[i].frames {
			if fr.dirty && s.class(fr.id) != classScratch {
				if err := s.writeFrame(fr); err != nil {
					return err
				}
			}
		}
	}
	if err := s.extendFile(); err != nil {
		return err
	}
	// fsync before closing: without it a crash shortly after a
	// "successful" Close can lose the just-written pages (the writes
	// above only reach the kernel cache). Flush always synced; Close
	// must too — closing an fd does not flush the page cache.
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("pagestore: close: sync: %w", err)
	}
	s.closed.Store(true)
	if err := s.file.Close(); err != nil {
		return fmt.Errorf("pagestore: close: %w", err)
	}
	return nil
}

// Sync flushes the backing file's kernel buffers to stable storage
// without touching the pool (dirty frames stay dirty). Checkpoint
// sequencing uses it between write-back and metadata publication.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.file.Sync(); err != nil {
		return fmt.Errorf("pagestore: sync: %w", err)
	}
	return nil
}

// cached reports whether the page currently resides in the pool
// (test/diagnostic helper; racy by nature under concurrency).
func (s *Store) cached(id PageID) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.frames[id]
	return ok
}
