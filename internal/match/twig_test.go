package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"timber/internal/paperdata"
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// deepChainPattern is the workload the holistic matcher exists for:
// doc_root //article //section /author, a four-level chain.
func deepChainPattern() *pattern.Tree {
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "doc_root"})
	art := pr.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.TagEq{Tag: "article"}))
	sec := art.AddChild(pattern.Descendant, pattern.NewNode("$3", pattern.TagEq{Tag: "section"}))
	sec.AddChild(pattern.Child, pattern.NewNode("$4", pattern.TagEq{Tag: "author"}))
	return pattern.MustTree(pr)
}

// sameBindings asserts two witness lists bind identical postings, in
// the same order, for every pattern label.
func sameBindings(t *testing.T, pt *pattern.Tree, want, got []DBBinding, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d bindings, want %d", label, len(got), len(want))
	}
	for i := range want {
		for _, l := range pt.Labels() {
			if want[i][l] != got[i][l] {
				t.Fatalf("%s: binding %d label %s = %v, want %v", label, i, l, got[i][l], want[i][l])
			}
		}
	}
}

// TestTwigMatchesBinaryProperty is the tentpole's hard invariant: on
// random documents and patterns the holistic matcher returns exactly
// the binary cascade's bindings — same postings, same order — both in
// bulk (at parallelism 1 and 4) and through the streaming Matcher
// interface.
func TestTwigMatchesBinaryProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
		if err != nil {
			return false
		}
		defer db.Close()
		docs := rng.Intn(3) + 1
		for i := 0; i < docs; i++ {
			if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), randomDocument(rng)); err != nil {
				return false
			}
		}
		var pt *pattern.Tree
		if rng.Intn(5) == 0 {
			pt = deepChainPattern()
		} else {
			pt = randomPattern(rng)
		}
		checkTwigEqualsBinary(t, db, pt)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTwigFigure1 drives the paper's Figure 1 pattern (glob predicate
// on title — a residual record-filter inside a stream) through the
// holistic matcher.
func TestTwigFigure1(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("dblp", paperdata.TransactionArticles()); err != nil {
		t.Fatal(err)
	}
	pt := paperdata.Figure1Pattern()
	bin, _, err := MatchKindObs(nil, db, pt, MatcherBinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	twig, stats, err := MatchKindObs(nil, db, pt, MatcherTwig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(twig) != 4 {
		t.Fatalf("twig witnesses = %d, want 4", len(twig))
	}
	sameBindings(t, pt, bin, twig, "figure1")
	if stats.RecordFilterFetches == 0 {
		t.Error("glob predicate should fetch records through the stream filter")
	}
}

// TestTwigValueIndexStream: a content-pinned node's stream comes from
// the value index (no record fetches), and agrees with the binary path.
func TestTwigValueIndexStream(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2",
		pattern.TagEq{Tag: "author"}, pattern.ContentEq{Value: "Jack"}))
	pt := pattern.MustTree(pr)
	twig, stats, err := MatchKindObs(nil, db, pt, MatcherTwig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(twig) != 2 {
		t.Fatalf("witnesses = %d, want 2", len(twig))
	}
	if stats.RecordFilterFetches != 0 {
		t.Errorf("value-index stream should not fetch records, got %d", stats.RecordFilterFetches)
	}
}

// TestTwigSingleNodePattern: the degenerate one-node twig streams the
// tag postings straight through.
func TestTwigSingleNodePattern(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	pt := pattern.MustTree(pattern.NewNode("$1", pattern.TagEq{Tag: "author"}))
	bin, _, err := MatchKindObs(nil, db, pt, MatcherBinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	twig, _, err := MatchKindObs(nil, db, pt, MatcherTwig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBindings(t, pt, bin, twig, "single-node")
}

// TestTwigFallsBackWithoutTags: an untagged pattern node cannot drive
// tag streams; a twig request silently runs the binary cascade and the
// stats say so.
func TestTwigFallsBackWithoutTags(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	pt := pattern.MustTree(pattern.NewNode("$1", pattern.ContentEq{Value: "Jack"}))
	if TwigApplicable(pt) {
		t.Fatal("untagged pattern reported twig-applicable")
	}
	ws, stats, err := MatchKindObs(nil, db, pt, MatcherTwig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("witnesses = %d, want 2", len(ws))
	}
	if stats.Matcher != "binary" {
		t.Errorf("stats.Matcher = %q, want binary fallback", stats.Matcher)
	}
}

// TestTwigSkipsNonMatchingDocuments: documents lacking a pattern tag
// are skipped at stream alignment — the twig matcher decodes strictly
// fewer postings than the binary cascade materializes on a corpus where
// most documents cannot match.
func TestTwigSkipsNonMatchingDocuments(t *testing.T) {
	db := newTestDB(t)
	// One matching document among nine without <section>.
	for i := 0; i < 10; i++ {
		root := xmltree.E("doc_root")
		for a := 0; a < 30; a++ {
			art := xmltree.E("article")
			art.Append(xmltree.Elem("author", fmt.Sprintf("A%d", a%7)))
			if i == 5 {
				art.Append(xmltree.E("section", xmltree.Elem("author", "S")))
			}
			root.Append(art)
		}
		if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), root); err != nil {
			t.Fatal(err)
		}
	}
	pt := deepChainPattern()
	bin, bstats, err := MatchKindObs(nil, db, pt, MatcherBinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	twig, tstats, err := MatchKindObs(nil, db, pt, MatcherTwig, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBindings(t, pt, bin, twig, "sparse corpus")
	if len(twig) == 0 {
		t.Fatal("fixture produced no witnesses")
	}
	if tstats.PostingsScanned >= bstats.PostingsScanned {
		t.Errorf("twig scanned %d postings, binary %d — expected strictly fewer",
			tstats.PostingsScanned, bstats.PostingsScanned)
	}
}

// TestMatcherKindParse: names round-trip and bad names fail.
func TestMatcherKindParse(t *testing.T) {
	for _, k := range []MatcherKind{MatcherAuto, MatcherBinary, MatcherTwig} {
		got, err := ParseMatcher(k.String())
		if err != nil || got != k {
			t.Errorf("ParseMatcher(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseMatcher(""); err != nil || k != MatcherAuto {
		t.Errorf("ParseMatcher(\"\") = %v, %v", k, err)
	}
	if _, err := ParseMatcher("nope"); err == nil {
		t.Error("ParseMatcher accepted an unknown name")
	}
	if !reflect.DeepEqual(MatcherNames(), []string{"auto", "binary", "twig"}) {
		t.Errorf("MatcherNames() = %v", MatcherNames())
	}
}

// TestResolve pins the auto-matcher rule and that Open runs what it
// returns: twig for every request but binary when each pattern node is
// tagged, binary whenever a node is untagged.
func TestResolve(t *testing.T) {
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
	tagged := pattern.MustTree(pr)
	ur := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	ur.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.ContentEq{Value: "Jack"}))
	untagged := pattern.MustTree(ur)

	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pt   *pattern.Tree
		kind MatcherKind
		want MatcherKind
	}{
		{tagged, MatcherAuto, MatcherTwig},
		{tagged, MatcherTwig, MatcherTwig},
		{tagged, MatcherBinary, MatcherBinary},
		{untagged, MatcherAuto, MatcherBinary},
		{untagged, MatcherTwig, MatcherBinary},
		{untagged, MatcherBinary, MatcherBinary},
	} {
		if got := Resolve(tc.pt, tc.kind); got != tc.want {
			t.Errorf("Resolve(%v) = %v, want %v", tc.kind, got, tc.want)
		}
		m, err := Open(db, tc.pt, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Stats().Matcher; got != tc.want.String() {
			t.Errorf("Open(%v) ran %s, Resolve says %v", tc.kind, got, tc.want)
		}
		m.Close()
	}
}

// TestOpenMemMatcher: the in-memory matcher behind the unified
// interface yields the same intervals as the database matchers.
func TestOpenMemMatcher(t *testing.T) {
	root := paperdata.SampleDatabase()
	xmltree.Number(root, 1)
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
	pt := pattern.MustTree(pr)

	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", root); err != nil {
		t.Fatal(err)
	}
	want, _, err := MatchDB(db, pt)
	if err != nil {
		t.Fatal(err)
	}
	m := OpenMem(pt, []*xmltree.Node{root})
	defer m.Close()
	i := 0
	for {
		b, ok := m.Next()
		if !ok {
			break
		}
		for _, l := range pt.Labels() {
			if b[l].Interval != want[i][l].Interval {
				t.Fatalf("binding %d label %s interval = %v, want %v", i, l, b[l].Interval, want[i][l].Interval)
			}
		}
		i++
	}
	if i != len(want) || m.Stats().Witnesses != i {
		t.Fatalf("streamed %d bindings (stats %d), want %d", i, m.Stats().Witnesses, len(want))
	}
}

// TestTwigBinaryConcurrentHammer runs both matchers concurrently
// against one snapshot under the race detector: matchers are
// read-only and must not interfere.
func TestTwigBinaryConcurrentHammer(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), randomDocument(rng)); err != nil {
			t.Fatal(err)
		}
	}
	sn := db.Snapshot()
	defer sn.Close()
	pt := randomPattern(rand.New(rand.NewSource(3)))
	want, _, err := MatchKindObs(nil, sn, pt, MatcherBinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		kind := MatcherBinary
		if g%2 == 0 {
			kind = MatcherTwig
		}
		wg.Add(1)
		go func(kind MatcherKind, par int) {
			defer wg.Done()
			got, _, err := MatchKindObs(nil, sn, pt, kind, par, nil)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("%v: %d bindings, want %d", kind, len(got), len(want))
				return
			}
			for i := range want {
				for _, l := range pt.Labels() {
					if want[i][l] != got[i][l] {
						errs <- fmt.Errorf("%v: binding %d label %s differs", kind, i, l)
						return
					}
				}
			}
		}(kind, g%4+1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzTwigMatch derives random corpora and patterns from the fuzz seed
// and checks the twig ≡ binary binding equivalence — the fuzz face of
// TestTwigMatchesBinaryProperty and TestTwigOrderPreservingMerge, wired
// into make fuzz-smoke. shape 0 draws bibliography documents and
// patterns; shape k > 0 runs twigMergePatterns[k-1] over recursively
// nested documents.
func FuzzTwigMatch(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(42), uint8(3), uint8(0))
	f.Add(int64(-7), uint8(2), uint8(0))
	for k := range twigMergePatterns {
		f.Add(int64(k), uint8(k), uint8(k+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, docs, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
		if err != nil {
			t.Skip()
		}
		defer db.Close()
		n := int(docs)%3 + 1
		doc := randomDocument
		if shape > 0 {
			doc = nestedDocument
		}
		for i := 0; i < n; i++ {
			if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), doc(rng)); err != nil {
				t.Fatal(err)
			}
		}
		var pt *pattern.Tree
		switch {
		case shape > 0:
			pt = mergePattern(t, int(shape)-1)
		case rng.Intn(4) == 0:
			pt = deepChainPattern()
		default:
			pt = randomPattern(rng)
		}
		checkTwigEqualsBinary(t, db, pt)
	})
}
