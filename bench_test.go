// Benchmarks regenerating the paper's evaluation (Sec. 6) and the
// design-choice ablations DESIGN.md calls out. One benchmark exists per
// experiment row:
//
//	E1 (titles query):  BenchmarkE1DirectTitles (paper: 323.966s)
//	                    BenchmarkE1GroupByTitles (paper: 178.607s)
//	E2 (count query):   BenchmarkE2DirectCount (paper: 155.564s)
//	                    BenchmarkE2GroupByCount (paper: 23.033s)
//
// plus the batch direct plan as a bracketing baseline and ablations
// (buffer pool size sweep, bulk vs incremental index loading,
// structural-join algorithms — the last in internal/sjoin). Absolute
// times are incomparable to the paper's Pentium III; the reproduced
// quantity is the *shape*: the groupby plan wins both experiments, and
// wins the count experiment by a much larger factor. Per-iteration
// buffer-pool fetches, physical page reads and value look-ups are
// reported as "fetches/op", "reads/op" and "lookups/op" — they are
// deterministic and machine-independent.
// TestPaperShape (paper_shape_test.go) asserts that shape on exact
// counts at a small scale, in every `go test`.
//
// The benchmark database defaults to 20,000 articles (~190k nodes) with
// a pool scaled to keep the paper's roughly 1:3 pool:data ratio. Set
// TIMBER_BENCH_ARTICLES to scale (440000 reproduces the paper's 4.6M
// nodes; expect a long setup).
//
// BenchmarkE1GroupByTitles has trace=off and trace=on sub-benchmarks:
// the same plan without a tracer and with the wall-clock-only tracer
// the engine attaches to every query, so that per-query cost reads off
// as the ns/op, allocs/op and fetches/op difference.
package timber_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/opt"
	"timber/internal/pagestore"
	"timber/internal/paperdata"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xq"
)

const defaultBenchArticles = 20_000

// buildQuery parses, translates and rewrites a query text into the
// executor's spec; a query the GROUPBY rewrite does not apply to is an
// error.
func buildQuery(text string) (exec.Spec, error) {
	ast, err := xq.Parse(text)
	if err != nil {
		return exec.Spec{}, err
	}
	naive, err := plan.Translate(ast)
	if err != nil {
		return exec.Spec{}, err
	}
	rewritten, applied, err := opt.Rewrite(naive)
	if err != nil {
		return exec.Spec{}, err
	}
	if !applied {
		return exec.Spec{}, fmt.Errorf("rewrite did not apply")
	}
	return exec.SpecFromPlan(rewritten)
}

// newBenchDB creates a temporary database with the paper's 8 KB pages
// and the given pool size.
func newBenchDB(poolPages int) (*storage.DB, error) {
	return storage.CreateTemp(storage.Options{PageSize: pagestore.DefaultPageSize, PoolPages: poolPages})
}

func TestBuildQuery(t *testing.T) {
	q, err := buildQuery(paperdata.Query1Text)
	if err != nil {
		t.Fatal(err)
	}
	if q.Mode != exec.Titles || q.MemberTag != "article" {
		t.Errorf("spec = %+v", q)
	}
	qc, err := buildQuery(paperdata.QueryCountText)
	if err != nil {
		t.Fatal(err)
	}
	if qc.Mode != exec.Count {
		t.Errorf("count spec = %+v", qc)
	}
	if _, err := buildQuery("not a query"); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := buildQuery(`FOR $a IN distinct-values(document("d")//x) RETURN <r>{$a}</r>`); err == nil {
		t.Error("non-grouping query should fail to build (no rewrite)")
	}
}

// benchPoolPages keeps pool:data near the paper's 32MB:100MB.
func benchPoolPages(articles int) int {
	// ~10.5 nodes/article, ~55 bytes/record => ~14 articles per 8 KiB
	// data page; a third of that in pool pages.
	pages := articles / 14 / 3
	if pages < 64 {
		pages = 64
	}
	return pages
}

func benchArticles() int {
	if s := os.Getenv("TIMBER_BENCH_ARTICLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return defaultBenchArticles
}

var (
	benchOnce   sync.Once
	benchDB     *storage.DB
	benchErr    error
	benchTitles exec.Spec
	benchCount  exec.Spec
)

func setupBench(b *testing.B) (*storage.DB, exec.Spec, exec.Spec) {
	b.Helper()
	benchOnce.Do(func() {
		articles := benchArticles()
		benchDB, benchErr = newBenchDB(benchPoolPages(articles))
		if benchErr != nil {
			return
		}
		if _, benchErr = dblpgen.GenerateToDB(benchDB, dblpgen.Config{Articles: articles, Seed: 2002}); benchErr != nil {
			return
		}
		if benchTitles, benchErr = buildQuery(paperdata.Query1Text); benchErr != nil {
			return
		}
		benchCount, benchErr = buildQuery(paperdata.QueryCountText)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDB, benchTitles, benchCount
}

// runPlan benchmarks one physical strategy with a cold pool per
// iteration, reporting deterministic counts alongside time: buffer-pool
// fetches, physical page reads and the executor's value look-ups.
func runPlan(b *testing.B, spec exec.Spec, strat exec.Strategy, o exec.Options) {
	db, _, _ := setupBench(b)
	spec.Strategy = strat
	b.ReportAllocs()
	b.ResetTimer()
	var fetches, reads, lookups uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.DropCache(); err != nil {
			b.Fatal(err)
		}
		db.ResetStats()
		b.StartTimer()
		res, err := exec.Run(db, spec, o)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Groups == 0 {
			b.Fatal("no groups")
		}
		st := db.Stats()
		fetches += st.Fetches
		reads += st.PhysicalReads
		lookups += uint64(res.Stats.ValueLookups)
	}
	b.ReportMetric(float64(fetches)/float64(b.N), "fetches/op")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
}

// --- E1: the Sec. 6 titles query -----------------------------------

func BenchmarkE1DirectTitles(b *testing.B) {
	_, titles, _ := setupBench(b)
	runPlan(b, titles, exec.StrategyDirect, exec.Options{})
}

func BenchmarkE1DirectBatchTitles(b *testing.B) {
	_, titles, _ := setupBench(b)
	runPlan(b, titles, exec.StrategyDirectBatch, exec.Options{})
}

func BenchmarkE1GroupByTitles(b *testing.B) {
	_, titles, _ := setupBench(b)
	b.Run("trace=off", func(b *testing.B) {
		runPlan(b, titles, exec.StrategyGroupBy, exec.Options{})
	})
	b.Run("trace=on", func(b *testing.B) {
		runPlan(b, titles, exec.StrategyGroupBy, exec.Options{Tracer: obs.New("bench", nil)})
	})
}

// BenchmarkE1GroupByTitlesParallel sweeps the executor's worker bound
// over the titles groupby plan. Results are byte-identical at every
// setting; only wall time moves (and only on multi-core hosts — the
// fetch counts stay constant everywhere).
func BenchmarkE1GroupByTitlesParallel(b *testing.B) {
	_, titles, _ := setupBench(b)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			runPlan(b, titles, exec.StrategyGroupBy, exec.Options{Parallelism: p})
		})
	}
}

// --- E2: the Sec. 6 count query -------------------------------------

func BenchmarkE2DirectCount(b *testing.B) {
	_, _, count := setupBench(b)
	runPlan(b, count, exec.StrategyDirect, exec.Options{})
}

func BenchmarkE2DirectBatchCount(b *testing.B) {
	_, _, count := setupBench(b)
	runPlan(b, count, exec.StrategyDirectBatch, exec.Options{})
}

func BenchmarkE2GroupByCount(b *testing.B) {
	_, _, count := setupBench(b)
	runPlan(b, count, exec.StrategyGroupBy, exec.Options{})
}

// --- A2: buffer pool size sensitivity -------------------------------

// BenchmarkAblationPoolSize runs the groupby titles plan against the
// same data with pools from badly undersized to whole-database: the
// knee in fetch latency shows where the working set stops fitting.
func BenchmarkAblationPoolSize(b *testing.B) {
	const articles = 8000
	for _, poolMB := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("pool=%dMB", poolMB), func(b *testing.B) {
			db, err := newBenchDB(poolMB * 1024 * 1024 / 8192)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: articles, Seed: 7}); err != nil {
				b.Fatal(err)
			}
			q, err := buildQuery(paperdata.Query1Text)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var reads uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := db.DropCache(); err != nil {
					b.Fatal(err)
				}
				db.ResetStats()
				b.StartTimer()
				if _, err := exec.Run(db, q, exec.Options{}); err != nil {
					b.Fatal(err)
				}
				reads += db.Stats().PhysicalReads
			}
			b.ReportMetric(float64(reads)/float64(b.N), "physreads/op")
		})
	}
}

// --- A4: bulk vs incremental index construction ----------------------

func BenchmarkLoadBulk(b *testing.B) {
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 2000, Seed: 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := storage.CreateTemp(storage.Options{PageSize: 8192, PoolPages: 2048})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.LoadDocument("d", root.Clone()); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

func BenchmarkLoadIncremental(b *testing.B) {
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 2000, Seed: 3})
	tiny, _ := dblpgen.Generate(dblpgen.Config{Articles: 1, Seed: 4})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := storage.CreateTemp(storage.Options{PageSize: 8192, PoolPages: 2048})
		if err != nil {
			b.Fatal(err)
		}
		// A first tiny document forces the second load down the
		// incremental path: sorted runs merged by InsertSorted.
		if _, err := db.LoadDocument("tiny", tiny.Clone()); err != nil {
			b.Fatal(err)
		}
		if _, err := db.LoadDocument("d", root.Clone()); err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}
