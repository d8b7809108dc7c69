package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"timber/internal/dblpgen"
	"timber/internal/paperdata"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// The parallel executors must be invisible: any Parallelism setting
// yields byte-identical result trees, identical group order and
// identical ExecStats. These tests pin that property on hand-written,
// generated and randomized databases.

// multiDocDB loads several documents — the per-document partitioning
// of the structural joins and MatchDBPar only kicks in with more than
// one — built from the paper's sample plus generated DBLP slices.
func multiDocDB(t *testing.T, seeds ...int64) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 2048, PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		root, _ := dblpgen.Generate(dblpgen.Config{Articles: 30, Seed: seed})
		if _, err := db.LoadDocument(fmt.Sprintf("dblp-%d.xml", i), root); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// serializeTrees renders result trees to one byte string for exact
// comparison (content, attribute and sibling order all included).
func serializeTrees(trees []*xmltree.Node) string {
	var out strings.Builder
	for _, tr := range trees {
		out.WriteString(xmltree.SerializeString(tr))
	}
	return out.String()
}

func TestGroupByExecParallelEquivalence(t *testing.T) {
	db := multiDocDB(t, 7, 11, 13)
	for _, src := range []string{query1Src, queryCountSrc, queryOrderedSrc} {
		_, _, spec := plansFor(t, src)
		seq, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 4, 8, 0} {
			par, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := serializeTrees(par.Trees), serializeTrees(seq.Trees); got != want {
				t.Errorf("%v p=%d: trees differ from sequential\ngot  %s\nwant %s", spec, p, got, want)
			}
			if par.Stats != seq.Stats {
				t.Errorf("%v p=%d: stats = %+v, want %+v", spec, p, par.Stats, seq.Stats)
			}
		}
	}
}

// TestGroupByExecParallelRandomized drives the same equivalence over
// randomized generated databases (shape and size vary with the seed).
func TestGroupByExecParallelRandomized(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := storage.CreateTemp(storage.Options{PageSize: 2048, PoolPages: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		nDocs := 1 + rng.Intn(3)
		for d := 0; d < nDocs; d++ {
			root, _ := dblpgen.Generate(dblpgen.Config{
				Articles:             5 + rng.Intn(40),
				MaxAuthorsPerArticle: 1 + rng.Intn(4),
				Seed:                 rng.Int63(),
			})
			if _, err := db.LoadDocument(fmt.Sprintf("d%d.xml", d), root); err != nil {
				t.Fatal(err)
			}
		}
		_, _, spec := plansFor(t, query1Src)
		if rng.Intn(2) == 0 {
			spec.Mode = Count
		}
		seq, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: 2 + rng.Intn(7)})
		if err != nil {
			t.Fatal(err)
		}
		return serializeTrees(par.Trees) == serializeTrees(seq.Trees) && par.Stats == seq.Stats
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestExecPhysicalParEquivalence(t *testing.T) {
	db := multiDocDB(t, 19, 23)
	for _, src := range []string{query1Src, queryCountSrc} {
		_, rewritten, _ := plansFor(t, src)
		seq, err := ExecPhysical(db, rewritten, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{4, 0} {
			par, err := ExecPhysical(db, rewritten, Options{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := serializeTrees(par.Trees), serializeTrees(seq.Trees); got != want {
				t.Errorf("p=%d: physical plan output differs from sequential", p)
			}
		}
	}
}

// TestParallelStatsExact pins counter accuracy under concurrency: with
// a pool large enough to avoid eviction, the buffer-pool counters of a
// parallel run must equal the sequential run's exactly — every fetch
// counted once, every miss read once.
func TestParallelStatsExact(t *testing.T) {
	run := func(parallelism int) (ExecStats, interface{}) {
		db, err := storage.CreateTemp(storage.Options{PageSize: 2048, PoolPages: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
			t.Fatal(err)
		}
		root, _ := dblpgen.Generate(dblpgen.Config{Articles: 50, Seed: 42})
		if _, err := db.LoadDocument("dblp.xml", root); err != nil {
			t.Fatal(err)
		}
		_, _, spec := plansFor(t, query1Src)
		db.ResetStats()
		res, err := runAs(db, StrategyGroupBy, spec, Options{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats, db.Stats()
	}
	seqStats, seqPool := run(1)
	parStats, parPool := run(8)
	if parStats != seqStats {
		t.Errorf("exec stats: p=8 %+v, p=1 %+v", parStats, seqStats)
	}
	if parPool != seqPool {
		t.Errorf("pool stats: p=8 %+v, p=1 %+v", parPool, seqPool)
	}
}

// TestConcurrentReaders exercises the storage read paths — tag-index
// scans, path joins, record fetches, subtree reads — of one shared
// Snapshot from many goroutines at once; run with -race this is the
// storage-layer thread-safety gate. (Whole executors running side by
// side are TestConcurrentIngestByteIdentity's subject.)
func TestConcurrentReaders(t *testing.T) {
	db := multiDocDB(t, 3)
	_, _, spec := plansFor(t, query1Src)
	sn := pin(t, db)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			done <- func() error {
				for i := 0; i < 5; i++ {
					members, err := storage.Drain(sn.TagStream(spec.MemberTag))
					if err != nil {
						return err
					}
					pairs, err := pathPairs(nil, sn, members, spec.JoinPath, 1+g%4, nil)
					if err != nil {
						return err
					}
					for _, p := range pairs[:min(len(pairs), 20)] {
						if _, err := sn.Content(p.leaf); err != nil {
							return err
						}
					}
					if _, err := sn.GetSubtree(members[g%len(members)].ID()); err != nil {
						return err
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
