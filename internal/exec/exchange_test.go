package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/obs"
	"timber/internal/par"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// nestedMembers builds a random tree whose member nodes may nest
// (recursive member tags) and returns the members' postings in start
// order, with pre/post-order intervals like the loader assigns.
func nestedMembers(rng *rand.Rand, nodes int) []storage.Posting {
	var members []storage.Posting
	var next uint32
	var walk func(depth int)
	walk = func(depth int) {
		start := next
		next++
		i := len(members)
		isMember := rng.Intn(3) > 0
		if isMember {
			members = append(members, storage.Posting{})
		}
		for nodes > 0 && depth < 6 && rng.Intn(4) > 0 {
			nodes--
			walk(depth + 1)
		}
		end := next
		next++
		if isMember {
			members[i].Interval = xmltree.Interval{Start: start, End: end, Level: uint16(depth)}
		}
	}
	for nodes > 0 {
		nodes--
		walk(1)
	}
	return members
}

// TestCutMembersNeverSplitsAMember checks the cut helper on synthetic
// nested intervals: the fragments partition the members in order, each
// but the last holds at least size members, no member of a fragment
// contains a member of a later one, and every member lies in its
// fragment's [first start, max end] window.
func TestCutMembersNeverSplitsAMember(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		members := nestedMembers(rng, 1+rng.Intn(400))
		for _, size := range []int{1, 2, 3, 7, 64, 1024} {
			frags := cutMembers(members, size)
			var joined []storage.Posting
			for i, f := range frags {
				if len(f) == 0 {
					t.Fatalf("seed %d size %d: fragment %d is empty", seed, size, i)
				}
				if i < len(frags)-1 && len(f) < size {
					t.Fatalf("seed %d size %d: fragment %d holds %d members", seed, size, i, len(f))
				}
				joined = append(joined, f...)
				lo, hi := f[0].Interval.Start, uint32(0)
				for _, m := range f {
					hi = max(hi, m.Interval.End)
				}
				for _, m := range f {
					if m.Interval.Start < lo || m.Interval.End > hi {
						t.Fatalf("seed %d size %d: member %v outside window [%d, %d]", seed, size, m.Interval, lo, hi)
					}
				}
				for _, later := range frags[i+1:] {
					for _, a := range f {
						for _, d := range later {
							if a.Interval.Start < d.Interval.Start && d.Interval.End < a.Interval.End {
								t.Fatalf("seed %d size %d: cut inside member %v (it contains %v)", seed, size, a.Interval, d.Interval)
							}
						}
					}
				}
			}
			if !reflect.DeepEqual(joined, members) && len(members) > 0 {
				t.Fatalf("seed %d size %d: fragments do not partition the members", seed, size)
			}
		}
	}
}

// splitDocRun is one traced groupby run's observable output.
type splitDocRun struct {
	trees      string
	sortedRows []string
	stats      ExecStats
	fragments  int64
	fallbacks  int64
	rows       map[string][2]int64 // op -> rows_in, rows_out
	batches    map[string]int64
}

func tracedGroupBy(t *testing.T, db *storage.DB, spec Spec, o Options) splitDocRun {
	t.Helper()
	db.ResetStats()
	tr := db.NewTracer("split")
	o.Tracer = tr
	res, err := runAs(db, StrategyGroupBy, spec, o)
	if err != nil {
		t.Fatalf("p=%d bs=%d sortmem=%d: %v", o.Parallelism, o.BatchSize, o.SortMemRows, err)
	}
	data := tr.Finish()
	if err := data.Verify(db.TraceCounters()); err != nil {
		t.Fatalf("p=%d bs=%d sortmem=%d: exactness invariant: %v", o.Parallelism, o.BatchSize, o.SortMemRows, err)
	}
	run := splitDocRun{
		trees:      serializeTrees(res.Trees),
		sortedRows: sorted(rows(res.Trees)),
		stats:      res.Stats,
		rows:       map[string][2]int64{},
		batches:    map[string]int64{},
	}
	var walk func(d *obs.SpanData)
	walk = func(d *obs.SpanData) {
		if d.Name == "exchange: match fragments" {
			run.fragments = d.Ops["fragments"]
			run.fallbacks = d.Ops["fallback_lookups"]
		}
		if name, ok := strings.CutPrefix(d.Name, "op: "); ok {
			run.rows[name] = [2]int64{d.Ops["rows_in"], d.Ops["rows_out"]}
			run.batches[name] = d.Ops["batches"]
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(data)
	return run
}

// TestExchangeSplitsOneDocument runs every groupby query shape on one
// generated document large enough that the exchange cuts it into
// several member-range fragments, and checks that result trees,
// ExecStats and per-operator rows in/out are identical for every
// parallelism, batch size and sort budget — and that batch counts do
// not depend on the parallelism. A second document gives some authors
// grouping values the value index does not cover (empty, or longer than
// its length bound); there the titles and count queries must produce
// the same trees with the value index on and off.
func TestExchangeSplitsOneDocument(t *testing.T) {
	gen := func() *xmltree.Node {
		root, _ := dblpgen.Generate(dblpgen.Config{Articles: 3000, Seed: 29})
		return root
	}
	db := splitDocDB(t, gen(), false)
	for _, q := range streamCorpus {
		sweepSplitDoc(t, db, q.name, q.src)
	}

	odd := gen()
	n := 0
	odd.Walk(func(nd *xmltree.Node) bool {
		if nd.Tag == "author" {
			n++
			switch {
			case n%7 == 0:
				nd.Content = ""
			case n%11 == 0:
				nd.Content = strings.Repeat(nd.Content[:1], 600)
			}
		}
		return true
	})
	withIdx, noIdx := splitDocDB(t, odd.Clone(), false), splitDocDB(t, odd, true)
	for _, q := range streamCorpus[:2] {
		on := sweepSplitDoc(t, withIdx, q.name+" uncovered values", q.src)
		off := sweepSplitDoc(t, noIdx, q.name+" no value index", q.src)
		if on.trees != off.trees {
			t.Errorf("%s: trees differ with the value index on and off", q.name)
		}
		if on.stats.ValueLookups >= off.stats.ValueLookups || on.fallbacks == 0 || on.fallbacks >= off.fallbacks {
			t.Errorf("%s: %d value look-ups (%d grouping fallbacks) with the value index, %d (%d) without; want fewer but some",
				q.name, on.stats.ValueLookups, on.fallbacks, off.stats.ValueLookups, off.fallbacks)
		}
	}
}

// splitDocDB loads one document into a fresh database.
func splitDocDB(t *testing.T, root *xmltree.Node, noValueIndex bool) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 2048, PoolPages: 2048, NoValueIndex: noValueIndex})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("dblp.xml", root); err != nil {
		t.Fatal(err)
	}
	return db
}

// sweepSplitDoc checks one query on one database at every parallelism,
// batch size and sort budget against the p=1 run and the logical plan,
// and returns the p=1 run.
func sweepSplitDoc(t *testing.T, db *storage.DB, name, src string) splitDocRun {
	t.Helper()
	_, rewritten, spec := plansFor(t, src)
	logical, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatal(err)
	}
	want := tracedGroupBy(t, db, spec, Options{Parallelism: 1, BatchSize: 256})
	if want.fragments < 3 {
		t.Fatalf("%s: exchange ran %d fragments, want >= 3", name, want.fragments)
	}
	if !reflect.DeepEqual(want.sortedRows, sorted(rows(logical.Trees))) {
		t.Fatalf("%s: groupby rows differ from the logical plan", name)
	}
	for _, bs := range []int{1, 7, 256} {
		for _, mem := range []int{0, 64} {
			var first *splitDocRun
			for _, p := range []int{1, 2, 4, 8, 0} {
				arm := fmt.Sprintf("%s p=%d bs=%d sortmem=%d", name, p, bs, mem)
				run := tracedGroupBy(t, db, spec, Options{Parallelism: p, BatchSize: bs, SortMemRows: mem})
				if run.trees != want.trees {
					t.Errorf("%s: trees differ", arm)
				}
				if run.stats != want.stats || run.fallbacks != want.fallbacks {
					t.Errorf("%s: stats = %+v (%d fallbacks), want %+v (%d)", arm, run.stats, run.fallbacks, want.stats, want.fallbacks)
				}
				if run.fragments != want.fragments {
					t.Errorf("%s: %d fragments, want %d", arm, run.fragments, want.fragments)
				}
				if !reflect.DeepEqual(run.rows, want.rows) {
					t.Errorf("%s: operator rows differ\ngot  %v\nwant %v", arm, run.rows, want.rows)
				}
				if first == nil {
					first = &run
				} else if !reflect.DeepEqual(run.batches, first.batches) {
					t.Errorf("%s: operator batches differ from p=1\ngot  %v\nwant %v", arm, run.batches, first.batches)
				}
			}
		}
	}
	return want
}

// BenchmarkExchange times the parallel match phase of the count query
// on a warm pool: one document of 4 000 articles, which the exchange
// cuts into member-range fragments, and 40 documents of 100 articles.
func BenchmarkExchange(b *testing.B) {
	_, _, spec := plansFor(b, queryCountSrc)
	for _, shape := range []struct {
		name       string
		docs, arts int
	}{{"one-doc", 1, 4000}, {"many-docs", 40, 100}} {
		b.Run(shape.name, func(b *testing.B) {
			db, err := storage.CreateTemp(storage.Options{PoolPages: 4096})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			for d := 0; d < shape.docs; d++ {
				root, _ := dblpgen.Generate(dblpgen.Config{Articles: shape.arts, Seed: int64(d + 1)})
				if _, err := db.LoadDocument(fmt.Sprintf("dblp-%d.xml", d), root); err != nil {
					b.Fatal(err)
				}
			}
			sn := db.Snapshot()
			defer sn.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex, err := runExchange(sn, spec, nil, par.Workers(0), defaultBatchSize, newOpSet())
				if err != nil {
					b.Fatal(err)
				}
				if ex.rows == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}
