package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from defs.go")

// benchmarkJSON is BENCHMARK.json as defs.go implies it. The contract
// fixes the file's keys, so layers, predictions and pins live in this
// package; this keeps the names, units, directions and bounds in step.
func benchmarkJSON() map[string]any {
	type named map[string]any
	var wl, e2e, layers []named
	for _, w := range workloadDefs {
		wl = append(wl, named{"name": w.Name, "why": w.Why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, named{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		layers = append(layers, named{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": defaultSeconds,
		"workloads":   wl,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of step with defs.go; run go test -run TestBenchmarkJSONMatchesDefs -update")
	}
}

func TestDefsMeetTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %g", m.Name, m.Unit, m.Better, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Layer == "" || m.Moves == "" {
			t.Errorf("%s: unit %q, better %q, layer %q, moves %q", m.Name, m.Unit, m.Better, m.Layer, m.Moves)
		}
	}
	for layer, metric := range shareMetric {
		if !seen[metric] {
			t.Errorf("trace layer %q maps to the unknown metric %q", layer, metric)
		}
	}
}

// TestSmoke runs every workload at a fiftieth of its size for 0.3 s,
// untraced and traced, and checks what the contract asks of a
// run: every named metric reported, no failed operation, spans that
// nest, and self times that add up to the root.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 42, seconds: 0.3, scale: 0.02, workDir: t.TempDir(), procs: 2}
	t.Setenv("TMPDIR", cfg.workDir)
	for _, wd := range workloadDefs {
		wd := wd
		t.Run(wd.Name, func(t *testing.T) {
			c := cfg
			if wd.Name == wlServe {
				if testing.Short() {
					t.Skip("starts a timber-serve subprocess")
				}
				c.serveBin = filepath.Join(cfg.workDir, "timber-serve")
				build := exec.Command("go", "build", "-o", c.serveBin, "./cmd/timber-serve")
				build.Dir = ".."
				if out, err := build.CombinedOutput(); err != nil {
					t.Fatalf("build timber-serve: %v\n%s", err, out)
				}
			}
			plain, err := runWorkload(wd.Name, c, false, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed != 0 || !plain.Correct || plain.Attempted < 1 {
				t.Fatalf("untraced: %d of %d operations failed: %v", plain.Failed, plain.Attempted, plain.FailureNotes)
			}
			for _, m := range endToEnd {
				if v, ok := plain.Metrics[m.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("untraced: %s = %v (reported %v)", m.Name, v, ok)
				}
			}

			traced, err := runWorkload(wd.Name, c, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced: %d of %d operations failed: %v", traced.Failed, traced.Attempted, traced.FailureNotes)
			}
			for _, m := range perLayer {
				if v, ok := traced.Metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("traced: %s = %v (reported %v)", m.Name, v, ok)
				}
			}
			spans := traced.trace.spans
			if err := checkNesting(spans); err != nil {
				t.Fatal(err)
			}
			var rootNS, selfNS int64
			for i, s := range selfTimes(spans) {
				if s < 0 {
					t.Fatalf("span %d (%s) has negative self time %d", i, spans[i].Name, s)
				}
				selfNS += s
				if spans[i].Parent < 0 {
					rootNS += spans[i].End - spans[i].Start
				}
			}
			if rootNS == 0 || selfNS != rootNS {
				t.Fatalf("self times sum to %d ns, roots to %d ns", selfNS, rootNS)
			}
			if pct := traced.Metrics["unaccounted_pct"]; pct < 0 || pct > 100 {
				t.Errorf("unaccounted_pct = %v", pct)
			}
		})
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q2, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 50},
		{ID: 2, Parent: 0, Start: 40, End: 70},
		{ID: 3, Parent: 1, Start: 10, End: 30},
	}
	got := selfTimes(spans)
	want := []int64{40, 20, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times = %v, want %v", got, want)
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	spans[3].End = 60
	if checkNesting(spans) == nil {
		t.Fatal("a child that outlives its parent passed the nesting check")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_ms_p50", Better: "lower", Bound: 0.10}
	sum := func(v ...float64) metricSummary {
		q1, q2, q3 := quartiles(v)
		return metricSummary{Values: v, Median: q2, Q1: q1, Q3: q3, Spread: spread(v)}
	}
	base := sum(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name string
		b    metricSummary
		want string
	}{
		{"same", base, verdictWithin},
		{"slower beyond the bound", sum(115, 116, 114, 115, 117, 113, 115, 116, 114, 115), verdictRegressed},
		{"faster in every pair", sum(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), verdictImproved},
		{"slightly slower", sum(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), verdictWithin},
	}
	for _, c := range cases {
		if _, got := compareRow(lower, base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, got := compareRow(lower, sum(100, 101, 99), sum(90, 91, 89)); got != verdictWithin {
		t.Errorf("three pairs: verdict %q, want %q: a gain needs ten", got, verdictWithin)
	}
	noisy := sum(100, 140, 70, 100, 150, 60, 100, 130, 80, 100)
	if _, got := compareRow(lower, noisy, sum(103, 103, 103, 103, 103, 103, 103, 103, 103, 103)); got != verdictUnresolved {
		t.Errorf("noisy base: verdict %q, want %q", got, verdictUnresolved)
	}
	higher := metricDef{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	if _, got := compareRow(higher, base, sum(80, 81, 79, 80, 82, 78, 80, 81, 79, 80)); got != verdictRegressed {
		t.Errorf("lower throughput: verdict %q, want %q", got, verdictRegressed)
	}
}
