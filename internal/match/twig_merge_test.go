package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// twigMergePatterns are the pattern shapes where an order-preserving
// prefix merge can go wrong, over the tags of nestedDocument. The
// directed cases below and FuzzTwigMatch's seed corpus both draw on
// them.
var twigMergePatterns = []struct{ name, text string }{
	// The last leaf joins on (a, d) while the accumulated rows are
	// ordered by (a, b, c, d, e): the shared prefix is not a prefix of
	// the bound columns.
	{"nested-branching", `$1 [tag=a]
  pc $2 [tag=b]
    pc $3 [tag=c]
  pc $4 [tag=d]
    pc $5 [tag=e]
    pc $6 [tag=f]`},
	// Descendant edges over same-tag nesting: several stack chains per
	// leaf push, so path solutions leave phase one out of root-first
	// order.
	{"recursive-chain", `$1 [tag=a]
  ad $2 [tag=b]
    ad $3 [tag=c]`},
	{"recursive-branch", `$1 [tag=a]
  ad $2 [tag=b]
    ad $3 [tag=c]
  ad $4 [tag=a]
    ad $5 [tag=c]`},
	{"three-leaves", `$1 [tag=a]
  ad $2 [tag=b]
  pc $3 [tag=c]
  ad $4 [tag=d]`},
	{"four-leaves", `$1 [tag=a]
  pc $2 [tag=b]
  ad $3 [tag=c]
  pc $4 [tag=d]
    ad $5 [tag=e]
    pc $6 [tag=f]
  ad $7 [tag=e]`},
}

func mergePattern(tb testing.TB, i int) *pattern.Tree {
	tb.Helper()
	return mustParsePattern(tb, twigMergePatterns[i%len(twigMergePatterns)].text)
}

// nestedDocument builds a random tree over the tags a–f in which any
// tag may nest inside any other, itself included.
func nestedDocument(rng *rand.Rand) *xmltree.Node {
	var grow func(n *xmltree.Node, depth int)
	grow = func(n *xmltree.Node, depth int) {
		if depth == 0 {
			return
		}
		for k := rng.Intn(4); k > 0; k-- {
			c := xmltree.E(string(rune('a' + rng.Intn(6))))
			n.Append(c)
			grow(c, depth-1)
		}
	}
	root := xmltree.E("a")
	grow(root, 5)
	return root
}

// checkTwigEqualsBinary asserts the holistic matcher's bindings equal
// the binary cascade's at parallelism 1 — in bulk at parallelism 1 and
// 4 and through the streaming face — and returns the witness count.
func checkTwigEqualsBinary(tb testing.TB, db storage.Reader, pt *pattern.Tree) int {
	tb.Helper()
	want, _, err := MatchKindObs(nil, db, pt, MatcherBinary, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	same := func(got []DBBinding, label string) {
		tb.Helper()
		if len(got) != len(want) {
			tb.Fatalf("%s: %d bindings, binary has %d", label, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				tb.Fatalf("%s: binding %d = %v, binary has %v", label, i, got[i], want[i])
			}
		}
	}
	for _, par := range []int{1, 4} {
		got, stats, err := MatchKindObs(nil, db, pt, MatcherTwig, par, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if stats.Matcher != "twig" || stats.Witnesses != len(got) {
			tb.Fatalf("twig stats = %+v for %d bindings", stats, len(got))
		}
		same(got, fmt.Sprintf("twig p=%d", par))
	}
	m, err := Open(db, pt, MatcherTwig)
	if err != nil {
		tb.Fatal(err)
	}
	defer m.Close()
	var streamed []DBBinding
	for {
		b, ok := m.Next()
		if !ok {
			break
		}
		streamed = append(streamed, b.Clone())
	}
	if err := m.Err(); err != nil {
		tb.Fatal(err)
	}
	same(streamed, "twig streamed")
	return len(want)
}

// TestTwigOrderPreservingMerge drives the sorted-prefix merge through
// the inputs that would expose a wrong output order or a missed group:
// hand-built documents per hazard, then random nested documents under
// every pattern shape.
func TestTwigOrderPreservingMerge(t *testing.T) {
	const branching = `<a>
  <b><c/><c/></b> <b><c/></b>
  <d><e/><e/><f/><f/></d> <d><e/><f/></d> <d><e/></d>
</a>`
	const recursive = `<a>
  <b><a><b><c/><b><c/><c/></b></b><c/></a><c/></b>
  <a><c/><b><c/></b></a>
  <b><c/></b>
</a>`
	const leaves = `<a>
  <b><d/></b> <c/> <c/> <b/> <d><e><f/></e><f/><e/></d> <d><f/></d>
  <a><b/><c><e/></c><d><e/><f/></d></a>
</a>`
	// f occurs, but never as a child of d; e and b/c match.
	const noLastLeaf = `<a><b><c/></b><d><e/></d><f/><b><f/></b></a>`
	// c occurs, but never under b: the first leaf has no solutions.
	const noFirstLeaf = `<a><b/><c/><d><e/><f/></d></a>`

	cases := []struct {
		name    string
		pattern int
		docs    []string
		want    int // -1: only equivalence is checked
	}{
		{"nested-branching", 0, []string{branching}, 3 * (2*2 + 1)},
		{"nested-branching/leaf-without-solutions", 0, []string{noLastLeaf, branching, noFirstLeaf}, 15},
		{"nested-branching/empty-result", 0, []string{noLastLeaf, noFirstLeaf}, 0},
		{"nested-branching/duplicate-starts", 0, []string{branching, branching, branching}, 45},
		{"recursive-chain", 1, []string{recursive}, -1},
		{"recursive-branch", 2, []string{recursive, recursive}, -1},
		{"three-leaves", 3, []string{leaves, recursive, leaves}, -1},
		{"four-leaves", 4, []string{leaves, leaves}, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newTestDB(t)
			for i, src := range c.docs {
				if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), xmltree.MustParse(src)); err != nil {
					t.Fatal(err)
				}
			}
			n := checkTwigEqualsBinary(t, db, mergePattern(t, c.pattern))
			if c.want >= 0 && n != c.want {
				t.Errorf("%d witnesses, want %d", n, c.want)
			}
			if c.want < 0 && n == 0 {
				t.Error("fixture produced no witnesses")
			}
		})
	}

	t.Run("random-nested", func(t *testing.T) {
		matched := 0
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db := newTestDB(t)
			for i := rng.Intn(3) + 1; i > 0; i-- {
				if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), nestedDocument(rng)); err != nil {
					t.Fatal(err)
				}
			}
			if checkTwigEqualsBinary(t, db, mergePattern(t, int(seed))) > 0 {
				matched++
			}
		}
		if matched < 10 {
			t.Errorf("only %d of 60 random cases had witnesses — the generator no longer exercises the merge", matched)
		}
	})
}

// matcherFixtures opens each Matcher implementation over the same
// three-witness-or-more input.
func matcherFixtures(t *testing.T) map[string]func() Matcher {
	t.Helper()
	root := xmltree.MustParse(`<a><b><c/><c/></b><b><c/></b><d><e/><f/></d></a>`)
	db := newTestDB(t)
	if _, err := db.LoadDocument("d", root); err != nil {
		t.Fatal(err)
	}
	pt := mustParsePattern(t, "$1 [tag=a]\n  ad $2 [tag=b]\n    pc $3 [tag=c]")
	open := func(kind MatcherKind) func() Matcher {
		return func() Matcher {
			m, err := Open(db, pt, kind)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Stats().Matcher; got != kind.String() {
				t.Fatalf("opened %q, want %v", got, kind)
			}
			return m
		}
	}
	return map[string]func() Matcher{
		"binary": open(MatcherBinary),
		"twig":   open(MatcherTwig),
		"mem":    func() Matcher { return OpenMem(pt, []*xmltree.Node{root}) },
	}
}

// TestNextAfterClose: a closed matcher hands out nothing, whether it
// was closed mid-stream (staged rows pending) or before the first pull.
func TestNextAfterClose(t *testing.T) {
	for name, open := range matcherFixtures(t) {
		t.Run(name, func(t *testing.T) {
			m := open()
			if _, ok := m.Next(); !ok {
				t.Fatal("fixture has no witnesses")
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if b, ok := m.Next(); ok {
				t.Errorf("Next after Close returned %v", b)
			}
			if err := m.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if m.Stats().Witnesses != 1 {
				t.Errorf("witnesses = %d, want the 1 delivered before Close", m.Stats().Witnesses)
			}

			m = open()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if b, ok := m.Next(); ok {
				t.Errorf("Next on a matcher closed before use returned %v", b)
			}
		})
	}
}

// TestBindingLifetime pins the Matcher.Next contract: the returned
// binding is overwritten by the following Next, a Clone is not.
func TestBindingLifetime(t *testing.T) {
	for name, open := range matcherFixtures(t) {
		t.Run(name, func(t *testing.T) {
			m := open()
			defer m.Close()
			first, ok := m.Next()
			if !ok {
				t.Fatal("fixture has no witnesses")
			}
			kept := first.Clone()
			second, ok := m.Next()
			if !ok {
				t.Fatal("fixture has one witness, need two")
			}
			if reflect.DeepEqual(kept, second) {
				t.Fatal("fixture's first two witnesses are equal")
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("binding kept without Clone = %v, want it overwritten with %v", first, second)
			}
			if reflect.DeepEqual(kept, first) {
				t.Errorf("Clone followed the matcher's binding to %v", first)
			}
		})
	}
}

// TestCollectorsReturnDistinctBindings: the slice-returning entry points
// hand out one retained map per witness, never the streaming matchers'
// reused one.
func TestCollectorsReturnDistinctBindings(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		if _, err := db.LoadDocument(fmt.Sprintf("d%d", i), nestedDocument(rng)); err != nil {
			t.Fatal(err)
		}
	}
	pt := mergePattern(t, 1)
	for _, kind := range []MatcherKind{MatcherBinary, MatcherTwig} {
		bs, _, err := MatchKindObs(nil, db, pt, kind, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(bs) < 2 {
			t.Fatalf("%v: %d witnesses, need two", kind, len(bs))
		}
		seen := make(map[uintptr]int, len(bs))
		for i, b := range bs {
			p := reflect.ValueOf(b).Pointer()
			if j, dup := seen[p]; dup {
				t.Fatalf("%v: bindings %d and %d are the same map", kind, j, i)
			}
			seen[p] = i
			if i > 0 && reflect.DeepEqual(b, bs[i-1]) {
				t.Fatalf("%v: bindings %d and %d are equal", kind, i-1, i)
			}
		}
	}
}
