package wal

import (
	"sync"
	"sync/atomic"
	"testing"

	"timber/internal/pagestore"
)

// BenchmarkAppend times framing and writing one page image (CRC plus a
// positioned file write, no fsync). The log is reset, untimed, every
// 1 024 appends so its file stays small.
func BenchmarkAppend(b *testing.B) {
	l, _ := tempLog(b)
	img := make([]byte, pagestore.DefaultPageSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%1024 == 0 {
			b.StopTimer()
			if err := l.Reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := l.AppendPage(pagestore.PageID(i), img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCommit times one durable commit — append a page image
// and a commit record under a commit lock (the storage layer's), then
// Sync — with one committer and with several. Concurrent committers
// share fsyncs; fsyncs/commit reports how many.
func BenchmarkGroupCommit(b *testing.B) {
	for _, c := range []struct {
		name        string
		parallelism int
	}{{"committers=1", 0}, {"committers=4xGOMAXPROCS", 4}} {
		b.Run(c.name, func(b *testing.B) {
			l, _ := tempLog(b)
			img := make([]byte, 512)
			var (
				commitMu sync.Mutex
				seq      uint64
				failed   atomic.Bool
			)
			commit := func() {
				commitMu.Lock()
				seq++
				s := seq
				err := l.AppendPage(pagestore.PageID(s), img)
				if err == nil {
					err = l.Commit(s)
				}
				commitMu.Unlock()
				if err == nil {
					err = l.Sync(s)
				}
				if err != nil && failed.CompareAndSwap(false, true) {
					b.Error(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if c.parallelism == 0 {
				for i := 0; i < b.N; i++ {
					commit()
				}
			} else {
				b.SetParallelism(c.parallelism)
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						commit()
					}
				})
			}
			b.StopTimer()
			st := l.Stats()
			b.ReportMetric(float64(st.Fsyncs)/float64(st.Commits), "fsyncs/commit")
		})
	}
}
