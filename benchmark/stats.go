package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sortedCopy(v), 0.5)
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method:
// position i*(n+1)/4 in the sorted sample, clamped to its ends) — the
// rule the benchmark contract uses to judge run-to-run spread. Fewer
// than two values have no spread: all three are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median — the
// noise figure every bound in BENCHMARK.json is compared against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// latencySlices is how many consecutive parts a window's samples are
// cut into. The reported p50, p95 and rate are the medians of the
// parts' own figures, so that a burst of interference (a neighbour on
// the host, a long collection) that lands in one part does not move
// them; p95 moves by several percent between runs when taken over the
// whole window.
const latencySlices = 5

// latencySummary is the distribution of one window's operation
// latencies, in milliseconds.
type latencySummary struct {
	N int `json:"n"`
	// P25, P75 are the quartiles of the whole window.
	P25 float64 `json:"p25_ms"`
	P75 float64 `json:"p75_ms"`
	// P50, P95 and PerSecond are medians over the window's slices.
	// PerSecond counts operations per second of timed region (one
	// closed-loop client, so think time — cache drops, result
	// verification — is excluded).
	P50       float64 `json:"p50_ms"`
	P95       float64 `json:"p95_ms"`
	PerSecond float64 `json:"per_second"`
	Slices    int     `json:"slices"`
}

// summarize folds a window's samples, given in the order they were
// taken.
func summarize(ms []float64) latencySummary {
	if len(ms) == 0 {
		return latencySummary{}
	}
	slices := latencySlices
	if len(ms) < 20*slices {
		// Too few samples for a slice to have a 95th percentile of its
		// own (the smoke test, a starved run): one slice.
		slices = 1
	}
	var p50, p95, rate []float64
	for i := 0; i < slices; i++ {
		part := sortedCopy(ms[i*len(ms)/slices : (i+1)*len(ms)/slices])
		sum := 0.0
		for _, v := range part {
			sum += v
		}
		p50 = append(p50, quantile(part, 0.50))
		p95 = append(p95, quantile(part, 0.95))
		rate = append(rate, float64(len(part))/(sum/1000))
	}
	all := sortedCopy(ms)
	return latencySummary{
		N:         len(all),
		P25:       quantile(all, 0.25),
		P75:       quantile(all, 0.75),
		P50:       median(p50),
		P95:       median(p95),
		PerSecond: median(rate),
		Slices:    slices,
	}
}
