package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCounter(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits")
	a.Inc()
	a.Add(2)
	if got := r.Counter("hits"); got != a {
		t.Error("Counter should return the same metric for the same name")
	}
	if a.Load() != 3 {
		t.Errorf("hits = %d, want 3", a.Load())
	}
	snap := r.Snapshot()
	if snap["hits"] != 3 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestRegistryWriteTextSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Add(2)
	r.Counter("aa").Add(1)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "aa 1\nzz 2\n" {
		t.Errorf("text = %q", b.String())
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	m := r.Counter("orphan")
	m.Inc()
	if m.Load() != 1 {
		t.Error("nil-registry metric should still count")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil || b.String() != "" {
		t.Errorf("nil registry text = %q, %v", b.String(), err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
}

// TestRegistryRejectsInvalidNames: first registration panics on a
// metric or label name the Prometheus text format cannot carry, for
// every registration kind, and accepts the grammar's full alphabet.
func TestRegistryRejectsInvalidNames(t *testing.T) {
	cases := []struct {
		name      string
		register  func(r *Registry)
		wantPanic bool
	}{
		{"counter a_b:c", func(r *Registry) { r.Counter("a_b:c") }, false},
		{"label vec a_b:c{x_1}", func(r *Registry) { r.CounterVec("a_b:c", "", "x_1") }, false},
		{"counter leading digit", func(r *Registry) { r.Counter("0bad") }, true},
		{"counter dash", func(r *Registry) { r.Counter("bad-name") }, true},
		{"gauge dot", func(r *Registry) { r.Gauge("bad.name", "") }, true},
		{"empty histogram name", func(r *Registry) { r.Histogram("", "", DefaultLatencyBuckets) }, true},
		{"label with colon", func(r *Registry) { r.CounterVec("ok_total", "", "a:b") }, true},
		{"label leading digit", func(r *Registry) { r.HistogramVec("ok_seconds", "", DefaultLatencyBuckets, "1op") }, true},
		{"empty label", func(r *Registry) { r.GaugeVec("ok", "", "") }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if p := recover(); (p != nil) != tc.wantPanic {
					t.Errorf("panic = %v, want panic %v", p, tc.wantPanic)
				}
			}()
			tc.register(NewRegistry())
		})
	}
}
