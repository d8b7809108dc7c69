package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func tempStore(t *testing.T, opts Options) *Store {
	t.Helper()
	st, err := CreateTemp(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !st.closed.Load() {
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})
	return st
}

func TestOptionsDefaults(t *testing.T) {
	st := tempStore(t, Options{})
	// The usable page is the slot minus the checksummed framing header.
	if st.PageSize() != DefaultPageSize-slotHeaderLen {
		t.Errorf("PageSize = %d, want %d", st.PageSize(), DefaultPageSize-slotHeaderLen)
	}
	if st.SlotSize() != DefaultPageSize {
		t.Errorf("SlotSize = %d, want %d", st.SlotSize(), DefaultPageSize)
	}
	if st.PoolPages() != 4096 {
		t.Errorf("PoolPages = %d, want 4096", st.PoolPages())
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := CreateTemp(Options{PageSize: 64}); err == nil {
		t.Error("page size 64 should be rejected")
	}
	if _, err := CreateTemp(Options{PoolPages: -1}); err == nil {
		t.Error("negative pool should be rejected")
	}
}

func TestAllocateFetchRoundTrip(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 4})
	p, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data(), []byte("hello world"))
	st.Unpin(p, true)

	q, err := st.Fetch(p.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(q.Data(), []byte("hello world")) {
		t.Error("fetched page lost data")
	}
	st.Unpin(q, false)
}

func TestFetchOutOfRange(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256})
	if _, err := st.Fetch(0); err == nil {
		t.Error("fetch of unallocated page should fail")
	}
}

func TestEvictionWritesBackDirtyPages(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 2})
	const n = 10
	ids := make([]PageID, n)
	for i := 0; i < n; i++ {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Data()[0] = byte(i + 1)
		ids[i] = p.ID()
		st.Unpin(p, true)
	}
	// With a 2-page pool, most pages were evicted. Read them all back.
	for i, id := range ids {
		p, err := st.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data()[0] != byte(i+1) {
			t.Errorf("page %d byte = %d, want %d", id, p.Data()[0], i+1)
		}
		st.Unpin(p, false)
	}
	s := st.Stats()
	if s.Evictions == 0 {
		t.Error("expected evictions with tiny pool")
	}
	if s.PhysicalReads == 0 {
		t.Error("expected physical reads after eviction")
	}
}

func TestPoolExhausted(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 2})
	p1, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Allocate(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("third pinned allocate: err = %v, want ErrPoolExhausted", err)
	}
	st.Unpin(p1, false)
	p3, err := st.Allocate()
	if err != nil {
		t.Errorf("allocate after unpin failed: %v", err)
	} else {
		st.Unpin(p3, false)
	}
	st.Unpin(p2, false)
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256})
	p, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	st.Unpin(p, false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	st.Unpin(p, false)
}

func TestLRUOrder(t *testing.T) {
	// One shard = one global LRU, so eviction order is exact.
	st := tempStore(t, Options{PageSize: 256, PoolPages: 2, Shards: 1})
	a, _ := st.Allocate()
	st.Unpin(a, true)
	b, _ := st.Allocate()
	st.Unpin(b, true)
	// Touch a so that b is the LRU victim.
	p, err := st.Fetch(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	st.Unpin(p, false)
	c, _ := st.Allocate() // must evict b, not a
	st.Unpin(c, true)
	if !st.cached(a.ID()) {
		t.Error("recently used page a was evicted")
	}
	if st.cached(b.ID()) {
		t.Error("LRU page b was not evicted")
	}
}

func TestStatsHitRate(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 8})
	p, _ := st.Allocate()
	id := p.ID()
	st.Unpin(p, true)
	for i := 0; i < 9; i++ {
		q, err := st.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		st.Unpin(q, false)
	}
	s := st.Stats()
	if s.Fetches != 9 || s.Hits != 9 {
		t.Errorf("stats = %+v, want 9 fetches, 9 hits", s)
	}
	if s.HitRate() != 1 {
		t.Errorf("hit rate = %f", s.HitRate())
	}
	st.ResetStats()
	if st.Stats().Fetches != 0 {
		t.Error("ResetStats did not zero counters")
	}
	if (Stats{}).HitRate() != 1 {
		t.Error("empty stats hit rate should be 1")
	}
	if got := s.String(); got == "" {
		t.Error("Stats.String empty")
	}
}

func TestDropCacheForcesPhysicalReads(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 8})
	p, _ := st.Allocate()
	p.Data()[3] = 42
	id := p.ID()
	st.Unpin(p, true)
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	st.ResetStats()
	q, err := st.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.Data()[3] != 42 {
		t.Error("data lost across DropCache")
	}
	st.Unpin(q, false)
	if st.Stats().PhysicalReads != 1 {
		t.Errorf("reads = %d, want 1", st.Stats().PhysicalReads)
	}
}

// TestDropCacheReusesFrames pins the cold-cache refill: after
// DropCache the pool's frames (and their page buffers) are reused, so
// pages read back byte-identical, the counters match the first cold
// pass exactly, and a drop-and-refetch cycle allocates no page buffers
// (checked without -race only).
func TestDropCacheReusesFrames(t *testing.T) {
	for _, codec := range []Codec{nil, LZ()} {
		const n = 40
		st := tempStore(t, Options{PageSize: 1024, PoolPages: 64, Codec: codec})
		rng := rand.New(rand.NewSource(1))
		var ids []PageID
		var want [][]byte
		for i := 0; i < n; i++ {
			p, err := st.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			// Half random, half repetitive: both raw and compressed slots.
			if i%2 == 0 {
				rng.Read(p.Data())
			} else {
				copy(p.Data(), bytes.Repeat([]byte{byte(i)}, 300))
			}
			ids = append(ids, p.ID())
			want = append(want, append([]byte(nil), p.Data()...))
			st.Unpin(p, true)
		}
		coldPass := func() Stats {
			t.Helper()
			if err := st.DropCache(); err != nil {
				t.Fatal(err)
			}
			st.ResetStats()
			for i, id := range ids {
				p, err := st.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(p.Data(), want[i]) {
					t.Fatalf("page %d differs after DropCache", id)
				}
				st.Unpin(p, false)
			}
			return st.Stats()
		}
		first := coldPass()
		if first.PhysicalReads != n || first.Hits != 0 {
			t.Fatalf("cold pass: %+v, want %d reads and no hits", first, n)
		}
		if again := coldPass(); again != first {
			t.Errorf("second cold pass stats %+v, want %+v", again, first)
		}
		if raceEnabled {
			continue // the race runtime allocates on its own
		}
		// Per page: the *Page handle and the LRU element on unpin. A
		// fresh frame and its page buffer would add two more.
		allocs := testing.AllocsPerRun(5, func() {
			if err := st.DropCache(); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				p, err := st.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				st.Unpin(p, false)
			}
		})
		if allocs > 2*n+4 {
			t.Errorf("drop-and-refetch of %d pages: %.0f allocs, want <= %d", n, allocs, 2*n+4)
		}
	}
}

func TestDropCacheRefusesPinned(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256})
	p, _ := st.Allocate()
	if err := st.DropCache(); err == nil {
		t.Error("DropCache with pinned page should fail")
	}
	st.Unpin(p, false)
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db")
	st, err := Create(path, Options{PageSize: 256, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := st.Allocate()
	copy(p.Data(), []byte("persist me"))
	st.Unpin(p, true)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(path, Options{PageSize: 256, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", st2.NumPages())
	}
	q, err := st2.Fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(q.Data(), []byte("persist me")) {
		t.Error("data lost across reopen")
	}
	st2.Unpin(q, false)
}

// TestOpenToleratesPartialTail: a crash can leave a torn partial slot
// at the end of the file; Open rounds the page count down to whole
// slots instead of refusing (recovery then discards the fragment).
func TestOpenToleratesPartialTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "odd")
	if err := writeFile(path, make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, Options{PageSize: 256})
	if err != nil {
		t.Fatalf("open with partial tail: %v", err)
	}
	if st.NumPages() != 1 {
		t.Errorf("NumPages = %d, want 1 (partial slot discarded)", st.NumPages())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Error("missing file should be rejected")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

func TestClosedStoreErrors(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Allocate(); !errors.Is(err, ErrClosed) {
		t.Errorf("Allocate on closed store: %v", err)
	}
	if _, err := st.Fetch(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Fetch on closed store: %v", err)
	}
	if err := st.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush on closed store: %v", err)
	}
	if err := st.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close: %v", err)
	}
}

func TestCloseRefusesPinned(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256})
	p, _ := st.Allocate()
	if err := st.Close(); err == nil {
		t.Error("Close with pinned page should fail")
	}
	st.Unpin(p, false)
}

// TestPoolProperty verifies, against an in-memory oracle, that an
// arbitrary interleaving of allocate/write/fetch/drop operations through
// a tiny pool never loses data.
func TestPoolProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, err := CreateTemp(Options{PageSize: 128, PoolPages: 3})
		if err != nil {
			return false
		}
		defer st.Close()
		oracle := map[PageID]byte{}
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r < 3 || len(oracle) == 0: // allocate
				p, err := st.Allocate()
				if err != nil {
					return false
				}
				v := byte(rng.Intn(256))
				p.Data()[5] = v
				oracle[p.ID()] = v
				st.Unpin(p, true)
			case r < 8: // fetch and verify, maybe rewrite
				id := PageID(rng.Intn(int(st.NumPages())))
				p, err := st.Fetch(id)
				if err != nil {
					return false
				}
				if p.Data()[5] != oracle[id] {
					st.Unpin(p, false)
					return false
				}
				dirty := false
				if rng.Intn(2) == 0 {
					v := byte(rng.Intn(256))
					p.Data()[5] = v
					oracle[id] = v
					dirty = true
				}
				st.Unpin(p, dirty)
			case r == 8:
				if err := st.DropCache(); err != nil {
					return false
				}
			default:
				if err := st.Flush(); err != nil {
					return false
				}
			}
		}
		for id, v := range oracle {
			p, err := st.Fetch(id)
			if err != nil {
				return false
			}
			ok := p.Data()[5] == v
			st.Unpin(p, false)
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentFetches(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 4})
	const n = 8
	ids := make([]PageID, n)
	for i := range ids {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Data()[0] = byte(i)
		ids[i] = p.ID()
		st.Unpin(p, true)
	}
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := ids[rng.Intn(n)]
				p, err := st.Fetch(id)
				if err != nil {
					errc <- err
					return
				}
				if p.Data()[0] != byte(id) {
					errc <- fmt.Errorf("page %d holds %d", id, p.Data()[0])
					st.Unpin(p, false)
					return
				}
				st.Unpin(p, false)
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}
