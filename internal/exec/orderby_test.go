package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

// The ordered Query 1 variant: titles per author, each author's titles
// DESCENDING — the ordering of Figure 3.
const queryOrderedSrc = `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    ORDER BY $b/title DESCENDING
    RETURN $b/title
  }
</authorpubs>`

const queryOrderedByYearSrc = `
FOR $a IN distinct-values(document("bib.xml")//author)
RETURN
<authorpubs>
  {$a}
  {
    FOR $b IN document("bib.xml")//article
    WHERE $a = $b/author
    ORDER BY $b/year
    RETURN $b/title
  }
</authorpubs>`

func TestOrderBySpec(t *testing.T) {
	_, _, spec := plansFor(t, queryOrderedSrc)
	if !reflect.DeepEqual(spec.OrderPath, ChildPath("title")) || !spec.OrderDesc {
		t.Errorf("spec order = %v desc=%v", spec.OrderPath, spec.OrderDesc)
	}
	_, _, specY := plansFor(t, queryOrderedByYearSrc)
	if !reflect.DeepEqual(specY.OrderPath, ChildPath("year")) || specY.OrderDesc {
		t.Errorf("year spec order = %v desc=%v", specY.OrderPath, specY.OrderDesc)
	}
}

func TestOrderByDescendingTitles(t *testing.T) {
	db := sampleDB(t)
	_, _, spec := plansFor(t, queryOrderedSrc)
	res, err := groupByExec(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Jack's titles descending: "XML and the Web" > "Querying XML".
	want := []string{
		"Jack:XML and the Web,Querying XML",
		"Jill:XML and the Web",
		"John:Querying XML,Hack HTML",
	}
	if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("ordered groupby = %v, want %v", got, want)
	}
}

func TestOrderByYearAscending(t *testing.T) {
	// Years force a numeric sort that differs from document order.
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e, el := xmltree.E, xmltree.Elem
	root := e("doc_root",
		e("article", el("author", "A"), el("title", "newest"), el("year", "2001")),
		e("article", el("author", "A"), el("title", "oldest"), el("year", "1989")),
		e("article", el("author", "A"), el("title", "middle"), el("year", "1995")),
	)
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	naive, rewritten, spec := plansFor(t, queryOrderedByYearSrc)

	want := []string{"A:oldest,middle,newest"}
	gb, err := groupByExec(db, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(gb.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("groupby by year = %v, want %v", got, want)
	}
	// Logical naive and rewritten agree.
	ln, err := ExecLogical(db, naive)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(ln.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("logical naive by year = %v, want %v", got, want)
	}
	lr, err := ExecLogical(db, rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows(lr.Trees); !reflect.DeepEqual(got, want) {
		t.Errorf("logical rewritten by year = %v, want %v", got, want)
	}
}

// TestOrderByAllPlansAgreeProperty extends the central equivalence to
// ordered queries: every plan produces identically ordered members.
func TestOrderByAllPlansAgreeProperty(t *testing.T) {
	naive, rewritten, spec := plansFor(t, queryOrderedSrc)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
		if err != nil {
			return false
		}
		defer db.Close()
		root := xmltree.E("doc_root")
		n := rng.Intn(10) + 1
		order := rng.Perm(n)
		for i := 0; i < n; i++ {
			art := xmltree.E("article")
			perm := rng.Perm(5)
			for a := 0; a < rng.Intn(3)+1; a++ {
				art.Append(xmltree.Elem("author", fmt.Sprintf("A%d", perm[a])))
			}
			// Exactly one title, unique per article (a random but
			// distinct sort key): with duplicate titles two articles
			// can be char-identical, where the naive plan's structural
			// dedup legitimately diverges from the witness-based plans
			// (see TestStructuralDedupCaveat).
			art.Append(xmltree.Elem("title", fmt.Sprintf("T%02d", order[i])))
			root.Append(art)
		}
		if _, err := db.LoadDocument("bib.xml", root); err != nil {
			return false
		}

		ln, err := ExecLogical(db, naive)
		if err != nil {
			return false
		}
		lr, err := ExecLogical(db, rewritten)
		if err != nil {
			return false
		}
		nRows := rows(ln.Trees)
		if !reflect.DeepEqual(sorted(rows(lr.Trees)), sorted(nRows)) {
			return false
		}
		for _, strat := range specStrategies {
			spec := spec
			spec.Strategy = strat
			res, err := Run(db, spec, Options{})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(sorted(rows(res.Trees)), sorted(nRows)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestOrderByRewriteCarriesOrderingList(t *testing.T) {
	_, rewritten, _ := plansFor(t, queryOrderedSrc)
	var gb *plan.GroupBy
	cur := rewritten.(*plan.Stitch).Parts[0].Op
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
		t.Fatal("no groupby")
	}
	if len(gb.Ordering) != 1 {
		t.Fatalf("ordering list = %v", gb.Ordering)
	}
	ordNode := gb.Pattern.NodeByLabel(gb.Ordering[0].Label)
	if ordNode == nil || ordNode.TagConstraint() != "title" {
		t.Errorf("ordering label resolves to %v", ordNode)
	}
}

func TestOrderByParseRestrictions(t *testing.T) {
	cases := []string{
		// Two keys.
		`FOR $a IN distinct-values(document("d")//author)
		 RETURN <x>{$a}{FOR $b IN document("d")//article WHERE $a = $b/author ORDER BY $b/title, $b/year RETURN $b/title}</x>`,
		// Key not on the inner variable.
		`FOR $a IN distinct-values(document("d")//author)
		 RETURN <x>{$a}{FOR $b IN document("d")//article WHERE $a = $b/author ORDER BY $a RETURN $b/title}</x>`,
		// Descendant step in the key.
		`FOR $a IN distinct-values(document("d")//author)
		 RETURN <x>{$a}{FOR $b IN document("d")//article WHERE $a = $b/author ORDER BY $b//title RETURN $b/title}</x>`,
	}
	for i, src := range cases {
		e, err := xq.Parse(src)
		if err != nil {
			t.Fatalf("case %d should parse: %v", i, err)
		}
		if _, err := plan.Translate(e); err == nil {
			t.Errorf("case %d should fail translation", i)
		}
	}
}

// TestOrderByMixedValuesDeterministic orders members by years that mix
// numbers and non-numbers ("1a", "NaN", "b"). Under a comparator that
// is not a total order the result depended on the sort's comparison
// sequence, so the groupby plan's spilled runs and the logical plan
// disagreed; under tax.CompareValues' total order every plan and every
// sort budget gives the one stable order.
func TestOrderByMixedValuesDeterministic(t *testing.T) {
	naive, rewritten, spec := plansFor(t, queryOrderedByYearSrc)
	years := []string{"9", "10", "1a", "NaN", "2", "b", "100"}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 256})
		if err != nil {
			t.Fatal(err)
		}
		root := xmltree.E("doc_root")
		for i := 0; i < 12; i++ {
			root.Append(xmltree.E("article",
				xmltree.Elem("author", "A"),
				xmltree.Elem("title", fmt.Sprintf("T%02d", i)),
				xmltree.Elem("year", years[rng.Intn(len(years))])))
		}
		if _, err := db.LoadDocument("bib.xml", root); err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, p := range []plan.Op{naive, rewritten} {
			res, err := ExecLogical(db, p)
			if err != nil {
				t.Fatal(err)
			}
			got := rows(res.Trees)
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: logical plans disagree\nnaive     %v\nrewritten %v", seed, want, got)
			}
		}
		for _, mem := range []int{0, 1, 2, 3, 5} {
			res, err := groupByExec(db, spec, Options{SortMemRows: mem})
			if err != nil {
				t.Fatal(err)
			}
			if got := rows(res.Trees); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d sortmem=%d: groupby %v, logical %v", seed, mem, got, want)
			}
		}
		db.Close()
	}
}
