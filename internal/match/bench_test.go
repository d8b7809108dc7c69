package match

import (
	"fmt"
	"math/rand"
	"testing"

	"timber/internal/pagestore"
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// The corpus and patterns below are this package's own copy of the
// twig_patterns workload of benchmark/ (32 documents of 250 articles,
// seed 2002), so the package benchmarks and the harness's match_* rows
// measure the same work without one importing the other.
const (
	benchDocs           = 32
	benchArticlesPerDoc = 250
	benchSeed           = 2002
	benchChainEvery     = 8
)

// benchBranch is satisfied by every article of every document: pure
// path merging.
const benchBranch = `$1 [tag=article]
  pc $2 [tag=title]
  pc $3 [tag=author]`

var benchPatterns = []struct{ name, text string }{
	// Sparse four-level chain: one document in eight holds a <section>.
	{"chain", `$1 [tag=doc_root]
  ad $2 [tag=article]
    ad $3 [tag=section]
      pc $4 [tag=author]`},
	{"branch", benchBranch},
	// The branch with one leaf served from the value index.
	{"pred", `$1 [tag=article]
  pc $2 [tag=title]
  pc $3 [tag=author & content="A7"]`},
}

func mustParsePattern(tb testing.TB, text string) *pattern.Tree {
	tb.Helper()
	pt, err := pattern.ParseTree(text)
	if err != nil {
		tb.Fatal(err)
	}
	return pt
}

// benchCorpusDB loads docs documents of articlesPerDoc articles each:
// a title and one to three authors drawn from 97 names per article; in
// one document of eight, every fourth article also has a <section>
// holding an author.
func benchCorpusDB(tb testing.TB, docs, articlesPerDoc int) *storage.DB {
	tb.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: pagestore.DefaultPageSize, PoolPages: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(benchSeed))
	for d := 0; d < docs; d++ {
		root := xmltree.E("doc_root")
		for a := 0; a < articlesPerDoc; a++ {
			art := xmltree.E("article")
			art.Append(xmltree.Elem("title", fmt.Sprintf("T%d-%d", d, a)))
			for k := rng.Intn(3); k >= 0; k-- {
				art.Append(xmltree.Elem("author", fmt.Sprintf("A%d", rng.Intn(97))))
			}
			if d%benchChainEvery == 0 && a%4 == 0 {
				art.Append(xmltree.E("section", xmltree.Elem("author", fmt.Sprintf("S%d", rng.Intn(13)))))
			}
			root.Append(art)
		}
		if _, err := db.LoadDocument(fmt.Sprintf("twig%d.xml", d), root); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// drain pulls a matcher to its last witness the way a streaming
// consumer does — each binding read before the next is requested — and
// returns the witness count.
func drain(tb testing.TB, db storage.Reader, pt *pattern.Tree, kind MatcherKind) int {
	m, err := Open(db, pt, kind)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		if _, ok := m.Next(); !ok {
			break
		}
		n++
	}
	if err := m.Err(); err != nil {
		tb.Fatal(err)
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
	return n
}

var benchWitnesses int

func BenchmarkMatch(b *testing.B) {
	db := benchCorpusDB(b, benchDocs, benchArticlesPerDoc)
	for _, p := range benchPatterns {
		pt := mustParsePattern(b, p.text)
		for _, kind := range []MatcherKind{MatcherBinary, MatcherTwig} {
			b.Run(p.name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchWitnesses = drain(b, db, pt, kind)
				}
			})
		}
	}
}

// TestTwigAllocCeiling pins the holistic matcher's allocation profile on
// the branching pattern: opening the streams costs a constant, each
// document a small constant (buffer-pool bookkeeping for the index
// leaves its cursors cross, arenas growing toward the largest document),
// and witnesses nothing. Run without -race — the
// race runtime allocates on its own.
func TestTwigAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const perOpen, perDoc = 400, 48
	pt := mustParsePattern(t, benchBranch)
	for _, docs := range []int{8, benchDocs} {
		db := benchCorpusDB(t, docs, benchArticlesPerDoc)
		var witnesses int
		allocs := testing.AllocsPerRun(3, func() {
			witnesses = drain(t, db, pt, MatcherAuto)
		})
		ceiling := float64(perOpen + perDoc*docs)
		t.Logf("%d docs: %d witnesses, %.0f allocations per drain (ceiling %.0f)", docs, witnesses, allocs, ceiling)
		if witnesses < docs*benchArticlesPerDoc {
			t.Fatalf("%d docs: only %d witnesses, the fixture measures nothing", docs, witnesses)
		}
		if allocs > ceiling {
			t.Errorf("%d docs: %.0f allocations per branch drain, ceiling %.0f (= %d + %d per document) — something allocates per witness again",
				docs, allocs, ceiling, perOpen, perDoc)
		}
	}
}
