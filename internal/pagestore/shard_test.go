package pagestore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// stampPage writes a recognizable pattern derived from the page ID so
// readers can verify they got the right bytes.
func stampPage(data []byte, id PageID) {
	binary.LittleEndian.PutUint32(data[0:], uint32(id))
	binary.LittleEndian.PutUint32(data[4:], ^uint32(id))
}

func checkStamp(data []byte, id PageID) bool {
	return binary.LittleEndian.Uint32(data[0:]) == uint32(id) &&
		binary.LittleEndian.Uint32(data[4:]) == ^uint32(id)
}

// TestShardedOracle drives a sharded store and a single-lock (Shards:1)
// store through the same randomized operation sequence and checks they
// behave identically where the policy is shared: same page contents at
// every fetch, same logical counters (fetches, allocations), and sane
// eviction accounting (hits + physical reads = fetches; every evicted
// page is recoverable from disk).
func TestShardedOracle(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sharded, err := CreateTemp(Options{PageSize: 128, PoolPages: 6, Shards: 3})
		if err != nil {
			return false
		}
		defer sharded.Close()
		single, err := CreateTemp(Options{PageSize: 128, PoolPages: 6, Shards: 1})
		if err != nil {
			return false
		}
		defer single.Close()

		stores := []*Store{sharded, single}
		content := map[PageID]byte{} // shared oracle of page payloads
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(10); {
			case r < 3 || len(content) == 0: // allocate on both
				v := byte(rng.Intn(256))
				var id PageID
				for i, st := range stores {
					p, err := st.Allocate()
					if err != nil {
						return false
					}
					stampPage(p.Data(), p.ID())
					p.Data()[100] = v
					if i == 0 {
						id = p.ID()
					} else if p.ID() != id {
						return false // diverging page IDs
					}
					st.Unpin(p, true)
				}
				content[id] = v
			case r < 8: // fetch and verify on both, maybe rewrite
				id := PageID(rng.Intn(int(sharded.NumPages())))
				rewrite := rng.Intn(2) == 0
				v := byte(rng.Intn(256))
				for _, st := range stores {
					p, err := st.Fetch(id)
					if err != nil {
						return false
					}
					if !checkStamp(p.Data(), id) || p.Data()[100] != content[id] {
						st.Unpin(p, false)
						return false
					}
					if rewrite {
						p.Data()[100] = v
					}
					st.Unpin(p, rewrite)
				}
				if rewrite {
					content[id] = v
				}
			case r == 8:
				for _, st := range stores {
					if err := st.DropCache(); err != nil {
						return false
					}
				}
			default:
				for _, st := range stores {
					if err := st.Flush(); err != nil {
						return false
					}
				}
			}
		}
		// Logical counters must be identical; physical behaviour must
		// satisfy the accounting identities on both stores.
		a, b := sharded.Stats(), single.Stats()
		if a.Fetches != b.Fetches || a.Allocations != b.Allocations {
			return false
		}
		for _, s := range []Stats{a, b} {
			if s.Hits+s.PhysicalReads != s.Fetches {
				return false
			}
			if s.Evictions > s.Fetches+s.Allocations {
				return false
			}
		}
		// Final contents identical.
		for id, v := range content {
			for _, st := range stores {
				p, err := st.Fetch(id)
				if err != nil {
					return false
				}
				ok := checkStamp(p.Data(), id) && p.Data()[100] == v
				st.Unpin(p, false)
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestShardCapacityPartition checks that shard capacities sum to
// PoolPages and match the dense-ID distribution, for awkward shard
// counts.
func TestShardCapacityPartition(t *testing.T) {
	for _, tc := range []struct{ pool, shards int }{
		{1, 16}, {2, 16}, {7, 3}, {16, 16}, {4096, 16}, {5, 4},
	} {
		st := tempStore(t, Options{PageSize: 128, PoolPages: tc.pool, Shards: tc.shards})
		sum := 0
		for i := range st.shards {
			if st.shards[i].cap < 1 {
				t.Errorf("pool=%d shards=%d: shard %d has zero capacity", tc.pool, tc.shards, i)
			}
			sum += st.shards[i].cap
		}
		if sum != tc.pool {
			t.Errorf("pool=%d shards=%d: capacities sum to %d", tc.pool, tc.shards, sum)
		}
		if st.Shards() > tc.pool {
			t.Errorf("pool=%d: %d shards exceed pool", tc.pool, st.Shards())
		}
	}
}

// TestDefaultShardsHoldMinFrames: a default-sharded small pool keeps at
// least MinShardFrames frames in every shard, while large pools keep
// the full DefaultShards.
func TestDefaultShardsHoldMinFrames(t *testing.T) {
	for _, tc := range []struct{ pool, shards int }{
		{1, 1}, {7, 1}, {32, 4}, {100, 12}, {320, 16}, {4096, 16},
	} {
		st := tempStore(t, Options{PageSize: 128, PoolPages: tc.pool})
		if st.Shards() != tc.shards {
			t.Errorf("pool=%d: %d shards, want %d", tc.pool, st.Shards(), tc.shards)
		}
		for i := range st.shards {
			if c := st.shards[i].cap; c < min(tc.pool, MinShardFrames) {
				t.Errorf("pool=%d: shard %d holds %d frames, want >= %d", tc.pool, i, c, MinShardFrames)
			}
		}
	}
}

// TestConcurrentReadersStress hammers a small sharded pool from many
// goroutines (run under -race by the Makefile's check target): every
// fetch must observe the page's stamped contents even while other
// goroutines force evictions, and the counters must balance afterwards.
func TestConcurrentReadersStress(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 8, Shards: 4})
	const npages = 64
	for i := 0; i < npages; i++ {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(p.Data(), p.ID())
		st.Unpin(p, true)
	}

	const goroutines = 8
	const opsPer = 2000
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPer; i++ {
				id := PageID(rng.Intn(npages))
				p, err := st.Fetch(id)
				if err != nil {
					errc <- err
					return
				}
				if !checkStamp(p.Data(), id) {
					errc <- fmt.Errorf("goroutine %d: page %d contents corrupted", g, id)
					st.Unpin(p, false)
					return
				}
				st.Unpin(p, false)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	s := st.Stats()
	if s.Fetches != goroutines*opsPer {
		t.Errorf("fetches = %d, want %d", s.Fetches, goroutines*opsPer)
	}
	if s.Hits+s.PhysicalReads != s.Fetches {
		t.Errorf("hits %d + reads %d != fetches %d", s.Hits, s.PhysicalReads, s.Fetches)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions with a pool smaller than the working set")
	}
}

// TestConcurrentFetchCountersExact verifies the no-eviction guarantee
// the executors' counter test relies on: with a pool that holds the
// whole working set, hit/miss totals are schedule-independent — each
// page misses exactly once no matter how many goroutines race for it.
func TestConcurrentFetchCountersExact(t *testing.T) {
	st := tempStore(t, Options{PageSize: 256, PoolPages: 64, Shards: 8})
	const npages = 32
	for i := 0; i < npages; i++ {
		p, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(p.Data(), p.ID())
		st.Unpin(p, true)
	}
	if err := st.DropCache(); err != nil {
		t.Fatal(err)
	}
	st.ResetStats()

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < npages; i++ {
					p, err := st.Fetch(PageID(i))
					if err != nil {
						t.Error(err)
						return
					}
					st.Unpin(p, false)
				}
			}
		}()
	}
	wg.Wait()

	s := st.Stats()
	want := uint64(goroutines * rounds * npages)
	if s.Fetches != want {
		t.Errorf("fetches = %d, want %d", s.Fetches, want)
	}
	if s.PhysicalReads != npages {
		t.Errorf("physical reads = %d, want exactly %d (one per page)", s.PhysicalReads, npages)
	}
	if s.Hits != want-npages {
		t.Errorf("hits = %d, want %d", s.Hits, want-npages)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", s.Evictions)
	}
}
