package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"timber/internal/opt"
	"timber/internal/paperdata"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

// The paper's Query 1 and its Sec. 6 count variant.
const (
	query1Src     = paperdata.Query1Text
	queryCountSrc = paperdata.QueryCountText
)

func plansFor(t testing.TB, src string) (naive, rewritten plan.Op, spec Spec) {
	t.Helper()
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	rewritten, applied, err := opt.Rewrite(naive)
	if err != nil || !applied {
		t.Fatalf("rewrite: applied=%v err=%v", applied, err)
	}
	spec, err = SpecFromPlan(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	return naive, rewritten, spec
}

// pin returns a snapshot of db, closed when the test ends (before a
// database whose cleanup was registered first).
func pin(tb testing.TB, db *storage.DB) *storage.Snapshot {
	sn := db.Snapshot()
	tb.Cleanup(func() { sn.Close() })
	return sn
}

// runAs runs spec through Run under strategy s.
func runAs(db *storage.DB, s Strategy, spec Spec, o Options) (*Result, error) {
	spec.Strategy = s
	return Run(db, spec, o)
}

func sampleDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	return db
}

// rows flattens result trees into comparable "author: x, y" strings.
func rows(trees []*xmltree.Node) []string {
	var out []string
	for _, tr := range trees {
		var b strings.Builder
		for i, c := range tr.Children {
			if i == 1 {
				b.WriteString(":")
			}
			if i > 1 {
				b.WriteString(",")
			}
			b.WriteString(c.Content)
		}
		out = append(out, b.String())
	}
	return out
}

func sorted(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

func TestSpecFromPlanQuery1(t *testing.T) {
	_, _, spec := plansFor(t, query1Src)
	if spec.MemberTag != "article" || spec.OutTag != "authorpubs" || spec.Mode != Titles {
		t.Errorf("spec = %+v", spec)
	}
	if !reflect.DeepEqual(spec.JoinPath, ChildPath("author")) {
		t.Errorf("join path = %v", spec.JoinPath)
	}
	if !reflect.DeepEqual(spec.ValuePath, ChildPath("title")) {
		t.Errorf("value path = %v", spec.ValuePath)
	}
	if spec.BasisTag() != "author" {
		t.Errorf("basis = %s", spec.BasisTag())
	}
	if !strings.Contains(spec.String(), "article") {
		t.Error("spec string")
	}
}

func TestSpecFromPlanCount(t *testing.T) {
	_, _, spec := plansFor(t, queryCountSrc)
	if spec.Mode != Count {
		t.Errorf("mode = %v", spec.Mode)
	}
}

func TestSpecFromPlanRejectsNaive(t *testing.T) {
	naive, _, _ := plansFor(t, query1Src)
	if _, err := SpecFromPlan(naive); err == nil {
		t.Error("naive plan (no GroupBy) should be rejected")
	}
	if _, err := SpecFromPlan(&plan.DBScan{}); err == nil {
		t.Error("non-stitch should be rejected")
	}
}

// wantSample is Query 1's answer on the Figure 6 database.
var wantSample = []string{
	"Jack:Querying XML,XML and the Web",
	"John:Querying XML,Hack HTML",
	"Jill:XML and the Web",
}

func TestGroupByExecSample(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	res, err := runAs(db, StrategyGroupBy, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sec. 5.3 sorting emits groups in value order.
	want := []string{
		"Jack:Querying XML,XML and the Web",
		"Jill:XML and the Web",
		"John:Querying XML,Hack HTML",
	}
	if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("groupby result = %v, want %v", got, want)
	}
	if res.Stats.Groups != 3 {
		t.Errorf("groups = %d", res.Stats.Groups)
	}
	// Titles mode fetches one title per group membership (Jack×2 +
	// John×2 + Jill×1 = 5); the author values come ranked from the
	// value index, without a look-up.
	if res.Stats.ValueLookups != 5 {
		t.Errorf("value lookups = %d, want 5", res.Stats.ValueLookups)
	}
	if res.Stats.LocatorProbes != 0 {
		t.Errorf("groupby plan must not navigate via the locator, probes = %d", res.Stats.LocatorProbes)
	}
}

func TestGroupByExecCountIdentifierOnly(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, queryCountSrc)
	res, err := runAs(db, StrategyGroupBy, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Jack:2", "Jill:1", "John:2"}
	if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("count result = %v, want %v", got, want)
	}
	// The count is computed without instantiating titles, and the
	// author values come ranked from the value index: no look-up at all.
	if res.Stats.ValueLookups != 0 {
		t.Errorf("count mode value lookups = %d, want 0", res.Stats.ValueLookups)
	}
}

func TestDirectBatchSample(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, query1Src)
	res, err := runAs(db, StrategyDirectBatch, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(res.Trees); !reflect.DeepEqual(got, wantSample) {
		t.Errorf("batch result = %v, want %v", got, wantSample)
	}
}

func TestDirectCountSample(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, queryCountSrc)
	want := []string{"Jack:2", "John:2", "Jill:1"}
	mt, err := runAs(db, StrategyDirect, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(mt.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("materialized count = %v, want %v", got, want)
	}
	bt, err := runAs(db, StrategyDirectBatch, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(bt.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("batch count = %v, want %v", got, want)
	}
}

func TestLogicalOracleAgreement(t *testing.T) {
	db := sampleDB(t)
	naive, rewritten, spec := plansFor(t, query1Src)

	logicalNaive, err := ExecLogical(db, naive)
	if err != nil {
		t.Fatal(err)
	}
	logicalGroup, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := runAs(db, StrategyDirect, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	group, err := runAs(db, StrategyGroupBy, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Direct physical = logical naive, including order.
	if !reflect.DeepEqual(rows(direct.Trees), rows(logicalNaive.Trees)) {
		t.Errorf("direct != logical naive:\n%v\n%v", rows(direct.Trees), rows(logicalNaive.Trees))
	}
	// GroupBy physical = logical rewritten, modulo group order (the
	// physical plan sorts by value; the logical operator uses
	// first-appearance order).
	if !reflect.DeepEqual(sorted(rows(group.Trees)), sorted(rows(logicalGroup.Trees))) {
		t.Errorf("groupby != logical rewritten:\n%v\n%v", rows(group.Trees), rows(logicalGroup.Trees))
	}
}

// randomBibDB loads a random bibliography into a fresh database and
// also returns the in-memory tree.
func randomBibDB(t testing.TB, rng *rand.Rand) (*storage.DB, *xmltree.Node) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	root := xmltree.E("doc_root")
	n := rng.Intn(12) + 1
	for i := 0; i < n; i++ {
		art := xmltree.E("article")
		// Distinct author values within an article (see the duplicate-
		// author caveat in package opt).
		perm := rng.Perm(6)
		for a := 0; a < rng.Intn(3)+1; a++ {
			art.Append(xmltree.Elem("author", fmt.Sprintf("A%d", perm[a])))
		}
		if rng.Intn(5) > 0 {
			art.Append(xmltree.Elem("title", fmt.Sprintf("T%d", i)))
		}
		art.Append(xmltree.Elem("year", fmt.Sprintf("%d", 1990+rng.Intn(12))))
		// A unique discriminator keeps articles structurally distinct,
		// so the naive plan's structural dedup (see
		// TestStructuralDedupCaveat) never fires on this data.
		art.Append(xmltree.Elem("ee", fmt.Sprintf("e%d", i)))
		root.Append(art)
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	return db, root
}

// TestAllPlansAgreeProperty is the reproduction's central integration
// property: on random bibliography databases, all four evaluation
// strategies — logical naive, logical groupby, physical direct (both
// variants), physical groupby — return the same result multiset, and
// the two direct plans match the naive order exactly.
func TestAllPlansAgreeProperty(t *testing.T) {
	naive, rewritten, spec := plansFor(t, query1Src)
	naiveC, rewrittenC, specC := plansFor(t, queryCountSrc)

	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := randomBibDB(t, rng)
		defer db.Close()

		for _, tc := range []struct {
			naive, rewritten plan.Op
			spec             Spec
		}{
			{naive, rewritten, spec},
			{naiveC, rewrittenC, specC},
		} {
			ln, err := ExecLogical(db, tc.naive)
			if err != nil {
				return false
			}
			lg, err := ExecLogical(db, tc.rewritten)
			if err != nil {
				return false
			}
			dmt, err := runAs(db, StrategyDirect, tc.spec, Options{})
			if err != nil {
				return false
			}
			dbt, err := runAs(db, StrategyDirectBatch, tc.spec, Options{})
			if err != nil {
				return false
			}
			gb, err := runAs(db, StrategyGroupBy, tc.spec, Options{})
			if err != nil {
				return false
			}
			nRows := rows(ln.Trees)
			if !reflect.DeepEqual(rows(dmt.Trees), nRows) {
				return false
			}
			if !reflect.DeepEqual(rows(dbt.Trees), nRows) {
				return false
			}
			// Groupby plans (logical and physical) agree with each
			// other and, as multisets, with the naive result for
			// authors that write articles. Authors outside articles
			// (none in this generator) are the only divergence.
			if !reflect.DeepEqual(sorted(rows(gb.Trees)), sorted(rows(lg.Trees))) {
				return false
			}
			if !reflect.DeepEqual(sorted(rows(gb.Trees)), sorted(nRows)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInstitutionQueryPhysical runs the two-step correlation path
// (group articles by author/institution) through all executors.
func TestInstitutionQueryPhysical(t *testing.T) {
	src := `
FOR $i IN distinct-values(document("bib.xml")//institution)
RETURN
<instpubs>
  {$i}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $i = $b/author/institution
    RETURN $b/title
  }
</instpubs>`
	naive, rewritten, spec := plansFor(t, src)
	_ = naive

	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root",
		e("article", e("author", el("institution", "UM")).Text("Jack"), el("title", "T1")),
		e("article", e("author", el("institution", "UBC")).Text("Jill"), el("title", "T2")),
		e("article", e("author", el("institution", "UM")).Text("Jag"), el("title", "T3")),
	)
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}

	gb, err := runAs(db, StrategyGroupBy, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"UBC:T2", "UM:T1,T3"} // sorted by institution
	if got := rows(gb.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("groupby institution = %v, want %v", got, want)
	}
	dmt, err := runAs(db, StrategyDirect, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sorted(rows(dmt.Trees)); !reflect.DeepEqual(got, want) {
		t.Errorf("direct institution = %v, want %v", got, want)
	}
	lg, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if got := sorted(rows(lg.Trees)); !reflect.DeepEqual(got, want) {
		t.Errorf("logical institution = %v, want %v", got, want)
	}
}

// TestFigures6To10WorkedExample replays the paper's Sec. 4.1 worked
// example end to end on the Figure 6 sample database: the rewritten
// plan's GroupBy input collection is the Figure 9 article collection,
// the groups are Figure 10's, and the final result matches the naive
// plan.
func TestFigures6To10WorkedExample(t *testing.T) {
	db := sampleDB(t)
	naive, rewritten, _ := plansFor(t, query1Src)

	// The rewritten plan's grouping stage input (Figure 9).
	st := rewritten.(*plan.Stitch)
	var gb *plan.GroupBy
	cur := st.Parts[0].Op
	for cur != nil {
		if g, ok := cur.(*plan.GroupBy); ok {
			gb = g
			break
		}
		ins := cur.Inputs()
		if len(ins) == 0 {
			break
		}
		cur = ins[0]
	}
	if gb == nil {
		t.Fatal("no groupby in rewritten plan")
	}
	articles, err := ExecLogical(db, gb.In)
	if err != nil {
		t.Fatal(err)
	}
	if articles.Len() != 3 {
		t.Fatalf("figure 9 collection = %d trees", articles.Len())
	}
	for _, tr := range articles.Trees {
		if tr.Tag != "article" || tr.Child("title") == nil {
			t.Errorf("figure 9 tree = %s", tr)
		}
	}

	// The intermediate grouping trees (Figure 10).
	groups, err := ExecLogical(db, gb)
	if err != nil {
		t.Fatal(err)
	}
	if groups.Len() != 3 {
		t.Fatalf("figure 10 groups = %d", groups.Len())
	}
	order := []string{"Jack", "John", "Jill"}
	for i, g := range groups.Trees {
		if got := g.Children[0].Children[0].Content; got != order[i] {
			t.Errorf("group %d = %s, want %s", i, got, order[i])
		}
	}

	// Final result equals the naive plan's.
	nOut, err := ExecLogical(db, naive)
	if err != nil {
		t.Fatal(err)
	}
	rOut, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows(nOut.Trees), rows(rOut.Trees)) {
		t.Errorf("worked example mismatch:\nnaive %v\ngroupby %v", rows(nOut.Trees), rows(rOut.Trees))
	}
}
