package match

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"timber/internal/paperdata"
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// TestFigure1PatternMatch reproduces Figures 1 and 2 of the paper: the
// article[title~*Transaction*][author] pattern against the DBLP
// fragment yields exactly the four witness trees shown in Figure 2.
func TestFigure1PatternMatch(t *testing.T) {
	root := paperdata.TransactionArticles()
	xmltree.Number(root, 1)
	pt := paperdata.Figure1Pattern()
	ws := Match(pt, []*xmltree.Node{root})
	if len(ws) != 4 {
		t.Fatalf("got %d witness trees, Figure 2 shows 4", len(ws))
	}
	type wt struct{ title, author string }
	want := []wt{
		{"Transaction Mng ...", "Silberschatz"},
		{"Overview of Transaction Mng", "Silberschatz"},
		{"Overview of Transaction Mng", "Garcia-Molina"},
		{"Transaction Mng ...", "Thompson"},
	}
	for i, w := range ws {
		got := wt{w["$2"].Content, w["$3"].Content}
		if got != want[i] {
			t.Errorf("witness %d = %+v, want %+v", i, got, want[i])
		}
		if w["$1"].Tag != "article" {
			t.Errorf("witness %d root = %s", i, w["$1"].Tag)
		}
	}
}

func TestMatchDescendantAxis(t *testing.T) {
	root := xmltree.MustParse(`<r><a><b><c>x</c></b></a><c>y</c></r>`)
	xmltree.Number(root, 1)
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "a"})
	pr.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.TagEq{Tag: "c"}))
	pt := pattern.MustTree(pr)
	ws := Match(pt, []*xmltree.Node{root})
	if len(ws) != 1 || ws[0]["$2"].Content != "x" {
		t.Errorf("witnesses = %v", ws)
	}
}

func TestMatchRepeatedSubElements(t *testing.T) {
	// One article, three authors: three witnesses (the heterogeneity
	// point of Sec. 2).
	root := xmltree.MustParse(`<r><article><author>A</author><author>B</author><author>C</author></article></r>`)
	xmltree.Number(root, 1)
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
	ws := Match(pattern.MustTree(pr), []*xmltree.Node{root})
	if len(ws) != 3 {
		t.Fatalf("witnesses = %d, want 3", len(ws))
	}
	for i, want := range []string{"A", "B", "C"} {
		if ws[i]["$2"].Content != want {
			t.Errorf("witness %d author = %s, want %s", i, ws[i]["$2"].Content, want)
		}
	}
}

func TestMatchMissingSubElement(t *testing.T) {
	// Articles without authors simply produce no witness — no nulls.
	root := xmltree.MustParse(`<r><article><title>T</title></article></r>`)
	xmltree.Number(root, 1)
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
	if ws := Match(pattern.MustTree(pr), []*xmltree.Node{root}); len(ws) != 0 {
		t.Errorf("witnesses = %v, want none", ws)
	}
}

func TestMatchMultiplePatternLevels(t *testing.T) {
	root := paperdata.SampleDatabase()
	xmltree.Number(root, 1)
	// doc_root -ad-> article -pc-> author: 5 witnesses (2+2+1 authors).
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "doc_root"})
	art := pr.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.TagEq{Tag: "article"}))
	art.AddChild(pattern.Child, pattern.NewNode("$3", pattern.TagEq{Tag: "author"}))
	ws := Match(pattern.MustTree(pr), []*xmltree.Node{root})
	if len(ws) != 5 {
		t.Errorf("witnesses = %d, want 5", len(ws))
	}
}

func newTestDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// matchPinned runs MatchKindObs on a snapshot of db pinned for the call.
func matchPinned(db *storage.DB, pt *pattern.Tree, kind MatcherKind, parallelism int) ([]DBBinding, *DBStats, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return MatchKindObs(nil, sn, pt, kind, parallelism, nil)
}

// TestMatchDBCancelled: an already-cancelled context aborts the match
// before the candidate scans and returns ctx.Err() with no bindings.
func TestMatchDBCancelled(t *testing.T) {
	db := newTestDB(t)
	root := paperdata.TransactionArticles()
	if _, err := db.LoadDocument("dblp", root); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sn := db.Snapshot()
	defer sn.Close()
	ws, _, err := MatchKindObs(ctx, sn, paperdata.Figure1Pattern(), MatcherBinary, 1, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ws != nil {
		t.Fatalf("cancelled match returned %d bindings, want none", len(ws))
	}
}

func TestMatchDBFigure1(t *testing.T) {
	db := newTestDB(t)
	root := paperdata.TransactionArticles()
	if _, err := db.LoadDocument("dblp", root); err != nil {
		t.Fatal(err)
	}
	pt := paperdata.Figure1Pattern()
	ws, stats, err := matchPinned(db, pt, MatcherBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("db witnesses = %d, want 4", len(ws))
	}
	if stats.Witnesses != 4 {
		t.Errorf("stats.Witnesses = %d", stats.Witnesses)
	}
	if stats.Candidates == 0 {
		t.Error("expected index candidates")
	}
	// The glob predicate on title forces record fetches for titles only.
	if stats.RecordFilterFetches == 0 {
		t.Error("glob predicate should fetch records")
	}
	// Spot-check first witness against the in-memory matcher.
	mem := Match(pt, []*xmltree.Node{root})
	for i := range ws {
		for _, l := range pt.Labels() {
			if ws[i][l].ID() != mem[i][l].Interval.ID() {
				t.Errorf("witness %d label %s: db %v, mem %v", i, l, ws[i][l].ID(), mem[i][l].Interval.ID())
			}
		}
	}
}

func TestMatchDBValueIndexPath(t *testing.T) {
	db := newTestDB(t)
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib", root); err != nil {
		t.Fatal(err)
	}
	// author content = "Jack": answered via value index, no record
	// fetches.
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2",
		pattern.TagEq{Tag: "author"}, pattern.ContentEq{Value: "Jack"}))
	pt := pattern.MustTree(pr)
	ws, stats, err := matchPinned(db, pt, MatcherBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("witnesses = %d, want 2 (Jack wrote two articles)", len(ws))
	}
	if stats.RecordFilterFetches != 0 {
		t.Errorf("value-index path should not fetch records, got %d", stats.RecordFilterFetches)
	}
}

// TestMatchContentEqBeyondValueIndex: a content-equality predicate on
// content the value index does not hold (over 512 bytes) is answered
// from the tag postings plus a record check. Both matchers, with and
// without a value index, give the same witnesses.
func TestMatchContentEqBeyondValueIndex(t *testing.T) {
	long, edge := strings.Repeat("L", 600), strings.Repeat("E", 512)
	doc := func() *xmltree.Node {
		return xmltree.E("dblp",
			xmltree.E("article", xmltree.Elem("title", long)),
			xmltree.E("article", xmltree.Elem("title", "short")),
			xmltree.E("article", xmltree.Elem("title", edge)),
			xmltree.E("article", xmltree.Elem("title", long)))
	}
	type witness struct{ article, title xmltree.Interval }
	for _, tc := range []struct {
		value string
		want  int
	}{{long, 2}, {edge, 1}, {"short", 1}, {strings.Repeat("L", 513), 0}} {
		pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
		pr.AddChild(pattern.Child, pattern.NewNode("$2",
			pattern.TagEq{Tag: "title"}, pattern.ContentEq{Value: tc.value}))
		pt := pattern.MustTree(pr)
		var ref []witness
		for _, noValueIndex := range []bool{false, true} {
			db, err := storage.CreateTemp(storage.Options{PageSize: 4096, PoolPages: 64, NoValueIndex: noValueIndex})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.LoadDocument("dblp", doc()); err != nil {
				t.Fatal(err)
			}
			for _, kind := range []MatcherKind{MatcherBinary, MatcherTwig} {
				ws, _, err := matchPinned(db, pt, kind, 1)
				if err != nil {
					t.Fatalf("%d-byte value, %s, no value index %v: %v", len(tc.value), kind, noValueIndex, err)
				}
				var got []witness
				for _, w := range ws {
					got = append(got, witness{w["$1"].Interval, w["$2"].Interval})
				}
				if len(got) != tc.want {
					t.Errorf("%d-byte value, %s, no value index %v: %d witnesses, want %d", len(tc.value), kind, noValueIndex, len(got), tc.want)
				}
				if ref == nil {
					ref = got
				} else if !reflect.DeepEqual(got, ref) {
					t.Errorf("%d-byte value, %s, no value index %v: witnesses %v, want %v", len(tc.value), kind, noValueIndex, got, ref)
				}
			}
		}
	}
}

func TestMatchDBFullScanFallback(t *testing.T) {
	db := newTestDB(t)
	root := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib", root); err != nil {
		t.Fatal(err)
	}
	// A pattern node with no tag constraint: any node with content
	// "Jack". Forces the full-scan access path.
	pt := pattern.MustTree(pattern.NewNode("$1", pattern.ContentEq{Value: "Jack"}))
	ws, _, err := matchPinned(db, pt, MatcherBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Errorf("full scan witnesses = %d, want 2", len(ws))
	}
}

func TestMatchDBNoMatches(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	pt := pattern.MustTree(pattern.NewNode("$1", pattern.TagEq{Tag: "nonexistent"}))
	ws, stats, err := matchPinned(db, pt, MatcherBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 0 || stats.Witnesses != 0 {
		t.Errorf("ws = %v", ws)
	}
}

func TestMatchDBMultipleDocuments(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("one", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocument("two", paperdata.TransactionArticles()); err != nil {
		t.Fatal(err)
	}
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
	ws, _, err := matchPinned(db, pattern.MustTree(pr), MatcherBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 5 author bindings in doc one + 5 in doc two.
	if len(ws) != 10 {
		t.Errorf("witnesses across docs = %d, want 10", len(ws))
	}
	// Doc 1 witnesses come first.
	if ws[0]["$1"].Interval.Doc != 1 || ws[len(ws)-1]["$1"].Interval.Doc != 2 {
		t.Error("witnesses not ordered by document")
	}
}

// randomDocument builds a random bibliography-shaped tree.
func randomDocument(rng *rand.Rand) *xmltree.Node {
	root := xmltree.E("doc_root")
	arts := rng.Intn(6) + 1
	for i := 0; i < arts; i++ {
		art := xmltree.E("article")
		for a := 0; a < rng.Intn(4); a++ {
			art.Append(xmltree.Elem("author", fmt.Sprintf("A%d", rng.Intn(5))))
		}
		if rng.Intn(4) > 0 {
			art.Append(xmltree.Elem("title", fmt.Sprintf("T%d", rng.Intn(8))))
		}
		if rng.Intn(2) == 0 {
			art.Append(xmltree.E("section", xmltree.Elem("author", fmt.Sprintf("A%d", rng.Intn(5)))))
		}
		root.Append(art)
	}
	return root
}

// randomPattern builds one of a few bibliography patterns.
func randomPattern(rng *rand.Rand) *pattern.Tree {
	switch rng.Intn(4) {
	case 0:
		pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
		pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
		return pattern.MustTree(pr)
	case 1:
		pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
		pr.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
		return pattern.MustTree(pr)
	case 2:
		pr := pattern.NewNode("$1", pattern.TagEq{Tag: "doc_root"})
		art := pr.AddChild(pattern.Descendant, pattern.NewNode("$2", pattern.TagEq{Tag: "article"}))
		art.AddChild(pattern.Child, pattern.NewNode("$3", pattern.TagEq{Tag: "author"}))
		art.AddChild(pattern.Child, pattern.NewNode("$4", pattern.TagEq{Tag: "title"}))
		return pattern.MustTree(pr)
	default:
		pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
		pr.AddChild(pattern.Child, pattern.NewNode("$2",
			pattern.TagEq{Tag: "author"}, pattern.ContentEq{Value: "A1"}))
		return pattern.MustTree(pr)
	}
}

// TestMatchersAgreeProperty is the central equivalence: the in-memory
// matcher and the index-driven matcher produce identical witness lists
// on random documents and patterns.
func TestMatchersAgreeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
		if err != nil {
			return false
		}
		defer db.Close()
		docs := rng.Intn(2) + 1
		var roots []*xmltree.Node
		for i := 0; i < docs; i++ {
			root := randomDocument(rng)
			if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), root); err != nil {
				return false
			}
			roots = append(roots, root)
		}
		pt := randomPattern(rng)
		mem := Match(pt, roots)
		dbw, _, err := matchPinned(db, pt, MatcherBinary, 0)
		if err != nil {
			return false
		}
		if len(mem) != len(dbw) {
			return false
		}
		for i := range mem {
			for _, l := range pt.Labels() {
				if mem[i][l].Interval.ID() != dbw[i][l].ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortDBBindings(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "author"})
	pt := pattern.MustTree(pr)
	ws, _, err := matchPinned(db, pt, MatcherBinary, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffle then re-sort.
	rev := make([]DBBinding, len(ws))
	for i := range ws {
		rev[len(ws)-1-i] = ws[i]
	}
	SortDBBindings(pt, rev)
	for i := range ws {
		if rev[i]["$1"].ID() != ws[i]["$1"].ID() {
			t.Fatalf("sort mismatch at %d", i)
		}
	}
}

// TestMatchDBParMatchesSequentialProperty: the per-document parallel
// matcher must return exactly the sequential witness list — same
// bindings, same order, same stats — for any parallelism.
func TestMatchDBParMatchesSequentialProperty(t *testing.T) {
	prop := func(seed int64, workers uint8) bool {
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
		pt := randomPattern(rng)
		seq, seqStats, err := matchPinned(db, pt, MatcherBinary, 1)
		if err != nil {
			return false
		}
		par, parStats, err := matchPinned(db, pt, MatcherBinary, int(workers%8)+2)
		if err != nil {
			return false
		}
		if len(seq) != len(par) || !reflect.DeepEqual(seqStats, parStats) {
			return false
		}
		for i := range seq {
			for _, l := range pt.Labels() {
				if seq[i][l] != par[i][l] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
