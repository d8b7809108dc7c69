package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"timber/internal/paperdata"
	"timber/internal/pattern"
)

// drainCursor pulls a matcher to exhaustion.
func drainCursor(c Matcher) []DBBinding {
	var out []DBBinding
	for {
		b, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, b.Clone())
	}
}

// TestCursorMatchesMatchDB pins the streaming cursor to the bulk binary
// cascade: identical bindings, identical order, identical witness
// count — on the paper's figures and across documents.
func TestCursorMatchesMatchDB(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("one", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocument("two", paperdata.TransactionArticles()); err != nil {
		t.Fatal(err)
	}
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
	for _, pt := range []*pattern.Tree{pattern.MustTree(pr), paperdata.Figure1Pattern()} {
		want, wantStats, err := matchPinned(db, pt, MatcherBinary, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(db, pt, MatcherBinary)
		if err != nil {
			t.Fatal(err)
		}
		got := drainCursor(c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cursor bindings differ from the bulk match:\ngot  %v\nwant %v", got, want)
		}
		if c.Stats().Witnesses != wantStats.Witnesses {
			t.Errorf("witnesses = %d, want %d", c.Stats().Witnesses, wantStats.Witnesses)
		}
	}
}

// TestCursorNoMatches pins the exhausted-at-open path (a pattern node
// with no candidates anywhere).
func TestCursorNoMatches(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.LoadDocument("bib", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
	pr.AddChild(pattern.Child, pattern.NewNode("$2", pattern.TagEq{Tag: "no_such_tag"}))
	c, err := Open(db, pattern.MustTree(pr), MatcherBinary)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := c.Next(); ok {
		t.Fatalf("unexpected binding %v", b)
	}
	if c.Stats().Witnesses != 0 {
		t.Errorf("witnesses = %d, want 0", c.Stats().Witnesses)
	}
}

// TestCursorMatchesMatchDBProperty drives the equivalence over random
// multi-document databases.
func TestCursorMatchesMatchDBProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := newTestDB(t)
		for d := 0; d < rng.Intn(3)+1; d++ {
			if _, err := db.LoadDocument(fmt.Sprintf("doc-%d", d), randomDocument(rng)); err != nil {
				t.Fatal(err)
			}
		}
		pr := pattern.NewNode("$1", pattern.TagEq{Tag: "article"})
		axis := pattern.Child
		if rng.Intn(2) == 0 {
			axis = pattern.Descendant
		}
		pr.AddChild(axis, pattern.NewNode("$2", pattern.TagEq{Tag: "author"}))
		pt := pattern.MustTree(pr)
		want, _, err := matchPinned(db, pt, MatcherBinary, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Open(db, pt, MatcherBinary)
		if err != nil {
			t.Fatal(err)
		}
		return reflect.DeepEqual(drainCursor(c), want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
