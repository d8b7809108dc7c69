package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"timber/internal/opt"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

func TestExecPhysicalMatchesLogicalQuery1(t *testing.T) {
	db := sampleDB(t)
	naive, rewritten, _ := plansFor(t, query1Src)
	for name, op := range map[string]plan.Op{"naive": naive, "rewritten": rewritten} {
		logical, err := ExecLogical(db, op)
		if err != nil {
			t.Fatal(err)
		}
		physical, err := ExecPhysical(db, op, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(physical.Strings(), logical.Strings()) {
			t.Errorf("%s plan: physical != logical:\nphys %v\nlog  %v",
				name, physical.Strings(), logical.Strings())
		}
	}
}

func TestExecPhysicalNonGroupingQuery(t *testing.T) {
	// A query the rewrite does not apply to: distinct authors only.
	// ExecPhysical must still run it via the index path.
	db := sampleDB(t)
	src := `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <who>{$a}</who>`
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecPhysical(db, naive, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`who[author:"Jack"]`,
		`who[author:"John"]`,
		`who[author:"Jill"]`,
	}
	if !reflect.DeepEqual(out.Strings(), want) {
		t.Errorf("physical = %v, want %v", out.Strings(), want)
	}
}

func TestExecPhysicalAvoidsFullLoadForLeafSelect(t *testing.T) {
	// The index path must fetch far fewer records than materializing
	// the whole document: compare buffer fetches against ExecLogical on
	// a database where the selection touches a small fraction of nodes.
	db, err := storage.CreateTemp(storage.Options{PageSize: 4096, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	root := xmltree.E("doc_root")
	for i := 0; i < 500; i++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", fmt.Sprintf("A%d", i%40)),
			xmltree.Elem("title", fmt.Sprintf("T%d", i)),
			xmltree.Elem("year", "2001"),
			xmltree.Elem("journal", "J"),
			xmltree.Elem("pages", "1-2"),
		))
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	src := `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <who>{$a}</who>`
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, err := ExecPhysical(db, naive, Options{}); err != nil {
		t.Fatal(err)
	}
	phys := db.Stats().Fetches
	db.ResetStats()
	if _, err := ExecLogical(db, naive); err != nil {
		t.Fatal(err)
	}
	logical := db.Stats().Fetches
	if phys >= logical {
		t.Errorf("physical fetches (%d) should undercut logical/full-load fetches (%d)", phys, logical)
	}
}

// TestExecPhysicalProperty: on random databases and all query variants,
// the generic physical evaluator equals the logical reference.
func TestExecPhysicalProperty(t *testing.T) {
	queries := []string{query1Src, queryCountSrc, queryOrderedSrc}
	var plans []plan.Op
	for _, src := range queries {
		naive, err := plan.Translate(xq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, naive)
		rw, applied, err := opt.Rewrite(naive)
		if err != nil || !applied {
			t.Fatal(err)
		}
		plans = append(plans, rw)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := randomBibDB(t, rng)
		defer db.Close()
		for _, p := range plans {
			logical, err := ExecLogical(db, p)
			if err != nil {
				return false
			}
			physical, err := ExecPhysical(db, p, Options{})
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(physical.Strings(), logical.Strings()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestExecPhysicalSharedGroupBySubplan(t *testing.T) {
	// The rewritten plan's two parts share one GroupBy; the substituted
	// plan must keep sharing it (pointer equality after substitution).
	db := sampleDB(t)
	_, rewritten, _ := plansFor(t, query1Src)
	sub, err := substituteLeaves(pin(t, db), rewritten, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sub.(*plan.Stitch)
	find := func(op plan.Op) *plan.GroupBy {
		for op != nil {
			if g, ok := op.(*plan.GroupBy); ok {
				return g
			}
			ins := op.Inputs()
			if len(ins) == 0 {
				return nil
			}
			op = ins[0]
		}
		return nil
	}
	g0, g1 := find(st.Parts[0].Op), find(st.Parts[1].Op)
	if g0 == nil || g0 != g1 {
		t.Errorf("GroupBy sharing lost: %p vs %p", g0, g1)
	}
}

func TestExecPhysicalUnknownOp(t *testing.T) {
	db := sampleDB(t)
	type bogus struct{ plan.Op }
	if _, err := ExecPhysical(db, bogus{}, Options{}); err == nil {
		t.Error("unknown op should error")
	}
}

func BenchmarkExecPhysicalVsLogical(b *testing.B) {
	db, err := storage.CreateTemp(storage.Options{PageSize: 8192, PoolPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	root := xmltree.E("doc_root")
	for i := 0; i < 2000; i++ {
		root.Append(xmltree.E("article",
			xmltree.Elem("author", fmt.Sprintf("A%d", i%200)),
			xmltree.Elem("title", fmt.Sprintf("T%d", i)),
		))
	}
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		b.Fatal(err)
	}
	src := `FOR $a IN distinct-values(document("bib.xml")//author) RETURN <who>{$a}</who>`
	naive, err := plan.Translate(xq.MustParse(src))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("physical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecPhysical(db, naive, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("logical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecLogical(db, naive); err != nil {
				b.Fatal(err)
			}
		}
	})
}
