package pagestore

import (
	"fmt"
	"testing"
)

// benchPages is the page count of every benchmark store: large enough
// that a cold pass touches many pages, small enough to build quickly.
const benchPages = 512

// benchStore builds a store of benchPages written, flushed pages of
// half-compressible content (a repeating record shape with a varying
// counter) with the given pool size and codec, and returns it with the
// page IDs.
func benchStore(b *testing.B, poolPages int, codec Codec) (*Store, []PageID) {
	b.Helper()
	st, err := CreateTemp(Options{PageSize: DefaultPageSize, PoolPages: poolPages, Codec: codec})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	ids := make([]PageID, benchPages)
	for i := range ids {
		p, err := st.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		d := p.Data()
		for j := 0; j+8 <= len(d); j += 8 {
			copy(d[j:], fmt.Sprintf("r%07d", (i*len(d)+j)/8%10_000_000)[:8])
		}
		ids[i] = p.ID()
		st.Unpin(p, true)
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := st.DropCache(); err != nil {
		b.Fatal(err)
	}
	return st, ids
}

// benchCodecs runs fn once per page codec the store supports.
func benchCodecs(b *testing.B, fn func(b *testing.B, codec Codec)) {
	for _, c := range []struct {
		name  string
		codec Codec
	}{{"raw", nil}, {"lz", LZ()}} {
		b.Run("codec="+c.name, func(b *testing.B) { fn(b, c.codec) })
	}
}

// BenchmarkFetchHit times a Fetch+Unpin of a resident page: the pool
// holds every page, so each op is a shard lookup and an LRU move.
func BenchmarkFetchHit(b *testing.B) {
	st, ids := benchStore(b, benchPages, nil)
	for _, id := range ids {
		p, err := st.Fetch(id)
		if err != nil {
			b.Fatal(err)
		}
		st.Unpin(p, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := st.Fetch(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		st.Unpin(p, false)
	}
}

// BenchmarkFetchMiss times a Fetch+Unpin of a page the pool does not
// hold, into a free frame: a file read, the CRC check and (with the LZ
// codec) decompression. The pool holds every page, so no fetch evicts;
// the cache is dropped, untimed, after each pass over the pages.
func BenchmarkFetchMiss(b *testing.B) {
	benchCodecs(b, func(b *testing.B, codec Codec) {
		st, ids := benchStore(b, benchPages, codec)
		b.SetBytes(int64(st.PageSize()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%len(ids) == 0 {
				b.StopTimer()
				if err := st.DropCache(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			p, err := st.Fetch(ids[i%len(ids)])
			if err != nil {
				b.Fatal(err)
			}
			st.Unpin(p, false)
		}
		b.StopTimer()
		if s := st.Stats(); s.PhysicalReads != uint64(b.N) {
			b.Fatalf("%d physical reads for %d fetches, want one each", s.PhysicalReads, b.N)
		}
	})
}

// BenchmarkEviction times a miss that must first evict: the pool holds
// an eighth of the pages and the fetches cycle through all of them, so
// every fetch reads a page and evicts the least recently used clean
// one.
func BenchmarkEviction(b *testing.B) {
	benchCodecs(b, func(b *testing.B, codec Codec) {
		st, ids := benchStore(b, benchPages/8, codec)
		for _, id := range ids {
			p, err := st.Fetch(id)
			if err != nil {
				b.Fatal(err)
			}
			st.Unpin(p, false)
		}
		st.ResetStats()
		b.SetBytes(int64(st.PageSize()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := st.Fetch(ids[i%len(ids)])
			if err != nil {
				b.Fatal(err)
			}
			st.Unpin(p, false)
		}
		b.StopTimer()
		if s := st.Stats(); s.Evictions != uint64(b.N) {
			b.Fatalf("%d evictions for %d fetches, want one each", s.Evictions, b.N)
		}
	})
}

// BenchmarkDropCache times emptying a full pool of clean pages — the
// cold-cache reset the benchmarks run before every cold operation. The
// pool is refilled, untimed, before each drop.
func BenchmarkDropCache(b *testing.B) {
	st, ids := benchStore(b, benchPages, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, id := range ids {
			p, err := st.Fetch(id)
			if err != nil {
				b.Fatal(err)
			}
			st.Unpin(p, false)
		}
		b.StartTimer()
		if err := st.DropCache(); err != nil {
			b.Fatal(err)
		}
	}
}
