// Command benchmark is timber's one performance harness: it builds its
// own databases from a seed, runs four workloads that stress different
// layers, checks every result against a reference evaluator, and
// reports end-to-end metrics (untraced) or per-layer metrics (traced).
// BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory explains them.
//
//	bash benchmark/run.sh --seed 2002                 all workloads, writes out/results.json
//	bash benchmark/run.sh --seed 2002 --trace 1       the same, plus the traced runs
//	bash benchmark/run.sh --repeat 3                  three full sets, with spreads
//	bash benchmark/run.sh --workload e2_count_cold --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh --compare a.json b.json
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// defaultSeconds is run_seconds in BENCHMARK.json: what the driver
// passes as --seconds.
const defaultSeconds = 20

func main() {
	workload := flag.String("workload", "", "run only this workload and end with the one-line JSON result (default: all four)")
	seed := flag.Int64("seed", pinnedSeed, "workload seed: the same seed gives the same corpora and operations")
	secs := flag.Float64("seconds", defaultSeconds, "measured window per workload, after a warm-up of a fifth of it (at most 3 s)")
	traceOn := flag.Int("trace", 0, "1: run traced and report the per-layer metrics; 0: untraced, end-to-end metrics")
	scale := flag.Float64("scale", 1, "multiply every corpus size (the smoke test uses 0.02)")
	repeat := flag.Int("repeat", 1, "run this many full sets and report each metric's median, quartiles and spread")
	outDir := flag.String("out", "out", "directory for results.json, trace files and the work directory")
	serveBin := flag.String("serve-bin", "", "timber-serve binary for serve_ingest_mix (run.sh builds and passes it)")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments; exit 1 on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("-compare takes two results.json files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *secs <= 0 || *scale <= 0 || *repeat < 1 || (*traceOn != 0 && *traceOn != 1) {
		fail(errors.New("need -seconds > 0, -scale > 0, -repeat >= 1 and -trace 0 or 1"))
	}

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	abs, err := filepath.Abs(*outDir)
	if err != nil {
		fail(err)
	}
	work := filepath.Join(abs, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fail(err)
	}
	// storage.CreateTemp and the executors' spill files go to the
	// system temp directory; keep them inside the work directory.
	if err := os.Setenv("TMPDIR", work); err != nil {
		fail(err)
	}
	cfg := config{seed: *seed, seconds: *secs, scale: *scale, workDir: work, serveBin: *serveBin, procs: procs}

	var runErr error
	correct := true
	if *workload != "" {
		correct, runErr = runOne(*workload, cfg, *traceOn == 1, abs)
	} else {
		correct, runErr = runAll(cfg, *traceOn == 1, *repeat, abs)
	}
	if err := os.RemoveAll(work); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fail(runErr)
	}
	if !correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's mode: one workload, one run, the JSON object
// last.
func runOne(name string, cfg config, traced bool, outDir string) (bool, error) {
	r, err := runWorkload(name, cfg, traced, os.Stdout)
	if err != nil {
		return false, err
	}
	if traced {
		if err := writeTrace(tracePath(outDir, name), name, cfg.seed, r.trace); err != nil {
			return false, err
		}
	}
	printResult(os.Stdout, r)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range defs {
		line.Metrics[m.Name] = driverValue{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return r.Correct, nil
}

// environment is the machine and configuration a result was recorded
// on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Texts      string  `json:"texts_sha256"`
}

func currentEnvironment(cfg config) environment {
	// The go tool stamps the revision when it builds inside a git
	// work tree; an exported checkout has none.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: cfg.procs, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit,
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Texts: textsDigest(),
	}
}

// metricSummary is one metric on one workload over the repeated sets.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/median, the figure a bound is compared with.
	Spread float64 `json:"spread"`
}

// workloadSummary is one workload over the repeated sets.
type workloadSummary struct {
	Workload  string                   `json:"workload"`
	Why       string                   `json:"why"`
	Attempted int                      `json:"ops_attempted"`
	Failed    int                      `json:"ops_failed"`
	Facts     workloadFacts            `json:"facts"`
	EndToEnd  map[string]metricSummary `json:"end_to_end"`
	PerLayer  map[string]metricSummary `json:"per_layer,omitempty"`
	Runs      []*runResult             `json:"runs"`
}

// resultsFile is out/results.json. Claim is null: the harness records a
// baseline and claims no gain.
type resultsFile struct {
	Claim       *string           `json:"claim"`
	Environment environment       `json:"environment"`
	Sets        int               `json:"sets"`
	Workloads   []workloadSummary `json:"workloads"`
}

func summarizeMetric(defs []metricDef, runs []*runResult) map[string]metricSummary {
	if len(runs) == 0 {
		return nil
	}
	out := map[string]metricSummary{}
	for _, m := range defs {
		var v []float64
		for _, r := range runs {
			v = append(v, r.Metrics[m.Name])
		}
		q1, q2, q3 := quartiles(v)
		out[m.Name] = metricSummary{Unit: m.Unit, Values: v, Median: q2, Q1: q1, Q3: q3, Spread: spread(v)}
	}
	return out
}

// runAll runs every workload, repeat times over, and writes
// results.json.
func runAll(cfg config, traced bool, repeat int, outDir string) (bool, error) {
	file := resultsFile{Environment: currentEnvironment(cfg), Sets: repeat}
	plain := map[string][]*runResult{}
	withTrace := map[string][]*runResult{}
	correct := true
	for set := 1; set <= repeat; set++ {
		for _, wd := range workloadDefs {
			fmt.Printf("set %d/%d: %s\n", set, repeat, wd.Name)
			r, err := runWorkload(wd.Name, cfg, false, os.Stdout)
			if err != nil {
				return false, err
			}
			printResult(os.Stdout, r)
			plain[wd.Name] = append(plain[wd.Name], r)
			correct = correct && r.Correct
			if !traced {
				continue
			}
			rt, err := runWorkload(wd.Name, cfg, true, os.Stdout)
			if err != nil {
				return false, err
			}
			if err := writeTrace(tracePath(outDir, wd.Name), wd.Name, cfg.seed, rt.trace); err != nil {
				return false, err
			}
			printResult(os.Stdout, rt)
			withTrace[wd.Name] = append(withTrace[wd.Name], rt)
			correct = correct && rt.Correct
		}
	}
	for _, wd := range workloadDefs {
		ws := workloadSummary{
			Workload: wd.Name, Why: wd.Why, Facts: plain[wd.Name][0].Facts,
			EndToEnd: summarizeMetric(endToEnd, plain[wd.Name]),
			PerLayer: summarizeMetric(perLayer, withTrace[wd.Name]),
			Runs:     append(plain[wd.Name], withTrace[wd.Name]...),
		}
		for _, r := range ws.Runs {
			ws.Attempted += r.Attempted
			ws.Failed += r.Failed
		}
		file.Workloads = append(file.Workloads, ws)
	}
	printSummary(file)
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Println("wrote", path)
	return correct, nil
}

// printSummary prints, per workload, each end-to-end metric's median,
// quartiles and spread next to its bound: the noise floor the bounds
// in BENCHMARK.json are taken from.
func printSummary(f resultsFile) {
	fmt.Printf("\n%d set(s), seed %d, %d of %d CPUs, %s\n", f.Sets, f.Environment.Seed, f.Environment.GOMAXPROCS, f.Environment.NProc, f.Environment.GoVersion)
	for _, ws := range f.Workloads {
		fmt.Printf("%s: %d operations, %d failed\n", ws.Workload, ws.Attempted, ws.Failed)
		for _, m := range endToEnd {
			s := ws.EndToEnd[m.Name]
			fmt.Printf("  %-28s median %12.4f  q1 %12.4f  q3 %12.4f %-6s spread %5.1f%%  bound %4.1f%%\n",
				m.Name, s.Median, s.Q1, s.Q3, m.Unit, 100*s.Spread, 100*m.Bound)
		}
		if len(ws.PerLayer) == 0 {
			continue
		}
		names := make([]string, 0, len(ws.PerLayer))
		for n := range ws.PerLayer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := ws.PerLayer[n]
			fmt.Printf("  %-40s median %14.4f %-8s spread %5.1f%%\n", n, s.Median, s.Unit, 100*s.Spread)
		}
	}
}
