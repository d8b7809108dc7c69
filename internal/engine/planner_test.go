package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// specStrategies are the Spec-level grouping plans: the one auto runs
// plus the ones it can be overridden to.
var specStrategies = []exec.Strategy{
	exec.StrategyGroupBy, exec.StrategyDirect, exec.StrategyDirectBatch,
}

// TestAutoRunsPlannerChoice: ExecOptions{} on a grouping query runs
// the groupby plan — the result reports it, the answer matches the
// logical reference, and engine_strategy_total counts the run.
func TestAutoRunsPlannerChoice(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pq.Execute(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != exec.StrategyGroupBy {
		t.Errorf("auto ran %v, want groupby", res.Strategy)
	}
	logical, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyLogical})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groupRows(res), groupRows(logical)) {
		t.Errorf("auto groups = %v, want %v", groupRows(res), groupRows(logical))
	}
	if got := e.Registry().CounterVec("engine_strategy_total", "", "strategy").With(res.Strategy.String()).Load(); got < 1 {
		t.Errorf("engine_strategy_total{%s} = %d, want >= 1", res.Strategy, got)
	}
}

// TestAutoByteIdenticalAtBothParallelisms is the acceptance check:
// every strategy (auto included) is byte-identical across parallelism
// 1 and 4, and the auto run is byte-identical to an explicit run of
// the strategy it ran — auto adds a rule, never nondeterminism.
// (Byte-identity *across* plan families is not a goal: direct plans
// emit groups in the paper's first-occurrence distinct-values order,
// groupby plans in sorted order.)
func TestAutoByteIdenticalAtBothParallelisms(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	auto1, err := pq.Execute(ctx, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	auto4, err := pq.Execute(ctx, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if auto1.Serialize() != auto4.Serialize() {
		t.Error("auto results differ between parallelism 1 and 4")
	}
	if auto1.Strategy != auto4.Strategy {
		t.Errorf("auto picked %v at p=1 but %v at p=4 on unchanged data", auto1.Strategy, auto4.Strategy)
	}
	for _, strat := range specStrategies {
		r1, err := pq.Execute(ctx, ExecOptions{Strategy: strat, Parallelism: 1})
		if err != nil {
			t.Fatalf("Execute(%v p=1): %v", strat, err)
		}
		r4, err := pq.Execute(ctx, ExecOptions{Strategy: strat, Parallelism: 4})
		if err != nil {
			t.Fatalf("Execute(%v p=4): %v", strat, err)
		}
		if r1.Serialize() != r4.Serialize() {
			t.Errorf("%v results differ between parallelism 1 and 4", strat)
		}
		if strat == auto1.Strategy && r1.Serialize() != auto1.Serialize() {
			t.Errorf("auto result differs from explicit %v run", strat)
		}
	}
}

// TestExplainWithoutExecution: Explain without execution reports the
// plan auto runs and lists no operators.
func TestExplainWithoutExecution(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	x := pq.Explain(ExecOptions{})
	if x.Executed {
		t.Error("Explain reported Executed without running")
	}
	if x.Requested != "auto" {
		t.Errorf("Requested = %q, want auto", x.Requested)
	}
	if x.Strategy != "groupby" {
		t.Errorf("Strategy = %q, want groupby", x.Strategy)
	}
	if len(x.Operators) != 0 {
		t.Errorf("operators before execution: %+v", x.Operators)
	}
	if txt := x.Text(); !strings.Contains(txt, "strategy: ") || strings.Contains(txt, "operators:") {
		t.Errorf("Text() wants a strategy line and no operators:\n%s", txt)
	}
}

// TestExplainExecuteJoinsActuals is the acceptance check on the E1
// workload (query1 is the paper's Query 1): after ExplainExecute,
// every strategy lists its traced operators, each once, with an
// actual row count.
func TestExplainExecuteJoinsActuals(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []exec.Strategy{
		exec.StrategyAuto, exec.StrategyGroupBy, exec.StrategyDirect,
		exec.StrategyDirectBatch, exec.StrategyPhysical,
	} {
		x, res, err := pq.ExplainExecute(context.Background(), ExecOptions{Strategy: strat})
		if err != nil {
			t.Fatalf("ExplainExecute(%v): %v", strat, err)
		}
		if !x.Executed {
			t.Fatalf("%v: Executed = false", strat)
		}
		if x.Strategy != res.Strategy.String() {
			t.Errorf("%v: report strategy %q != result strategy %q", strat, x.Strategy, res.Strategy)
		}
		if len(x.Operators) == 0 {
			t.Fatalf("%v: no operators", strat)
		}
		seen := map[string]bool{}
		for _, op := range x.Operators {
			if op.ActualRows <= 0 {
				t.Errorf("%v: operator %q has actual row count %d", strat, op.Op, op.ActualRows)
			}
			if seen[op.Op] {
				t.Errorf("%v: operator %q listed twice", strat, op.Op)
			}
			seen[op.Op] = true
		}
		wantGroups := int64(res.Stats.Groups)
		if strat == exec.StrategyPhysical {
			wantGroups = int64(len(res.Trees))
		}
		if x.ActualGroups != wantGroups {
			t.Errorf("%v: ActualGroups = %d, want %d", strat, x.ActualGroups, wantGroups)
		}
		// Renders both ways.
		txt := x.Text()
		if !strings.Contains(txt, "actual") {
			t.Errorf("%v: Text() missing actuals:\n%s", strat, txt)
		}
		raw, err := x.JSON()
		if err != nil {
			t.Fatalf("%v: JSON(): %v", strat, err)
		}
		var back map[string]any
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%v: JSON round-trip: %v", strat, err)
		}
		if back["executed"] != true {
			t.Errorf("%v: JSON executed = %v", strat, back["executed"])
		}
	}
}

// TestExplainNonGroupingQuery: queries outside the grouping family
// explain as the generic physical fallback, and ExplainExecute still
// runs them.
func TestExplainNonGroupingQuery(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(nonGrouping)
	if err != nil {
		t.Fatal(err)
	}
	x, res, err := pq.ExplainExecute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Strategy != "physical" {
		t.Errorf("strategy = %q, want physical", x.Strategy)
	}
	if x.Note == "" {
		t.Error("fallback explain should carry a note")
	}
	if x.ActualGroups != int64(len(res.Trees)) {
		t.Errorf("ActualGroups = %d, want %d trees", x.ActualGroups, len(res.Trees))
	}
}

// accessCount runs pq once under o and returns its exact access cost
// in the planner's units: buffer-pool fetches, plus postings read from
// the indexes — the executor's IndexPostings and the matchers' traced
// postings_scanned. Every term is a deterministic count, so gates built
// on it do not depend on the host's speed or load.
func accessCount(t *testing.T, db *storage.DB, pq *PreparedQuery, o ExecOptions) int64 {
	t.Helper()
	db.ResetStats()
	tr := db.NewTracer("access")
	o.Tracer = tr
	res, err := pq.Execute(context.Background(), o)
	if err != nil {
		t.Fatalf("Execute(%+v): %v", o, err)
	}
	d := tr.Finish()
	n := int64(d.Delta.Fetches) + int64(res.Stats.IndexPostings)
	var scanned func(d *obs.SpanData)
	scanned = func(d *obs.SpanData) {
		n += d.Ops["postings_scanned"]
		for _, c := range d.Children {
			scanned(c)
		}
	}
	scanned(d)
	return n
}

// pickFixture prepares Query 1 over a generated bench-style database
// and runs it once, so every judged run starts from a warm pool.
func pickFixture(t *testing.T) (*storage.DB, *PreparedQuery) {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	pq, err := New(db, Options{}).Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute(context.Background(), ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	return db, pq
}

// TestPlannerPickNeverFarFromBest is the planner-correctness gate: on
// a bench-style fixture the planner's pick must not cost more than
// 1.5x the accesses of the best Spec-level strategy it chooses among.
func TestPlannerPickNeverFarFromBest(t *testing.T) {
	db, pq := pickFixture(t)
	costs := map[exec.Strategy]int64{}
	best := int64(-1)
	for _, strat := range []exec.Strategy{exec.StrategyGroupBy, exec.StrategyDirect} {
		costs[strat] = accessCount(t, db, pq, ExecOptions{Strategy: strat})
		if best < 0 || costs[strat] < best {
			best = costs[strat]
		}
	}
	auto, err := pq.Execute(context.Background(), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	picked := accessCount(t, db, pq, ExecOptions{Strategy: auto.Strategy})
	t.Logf("planner picked %v: %d accesses; candidates %v", auto.Strategy, picked, costs)
	if float64(picked) > 1.5*float64(best) {
		t.Errorf("planner picked %v at %d accesses; best strategy needs %d (> 1.5x; costs %v)",
			auto.Strategy, picked, best, costs)
	}
}

// TestReadQueryWritesNothing: an auto Execute, an Explain and an
// ExplainExecute on a bulk-loaded database allocate no page and commit
// nothing.
func TestReadQueryWritesNothing(t *testing.T) {
	e := sampleEngine(t, Options{})
	db := e.DB()
	pages, commits := db.NumPages(), db.WALStats().Commits
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute(context.Background(), ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	pq.Explain(ExecOptions{})
	if _, _, err := pq.ExplainExecute(context.Background(), ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := db.NumPages(); got != pages {
		t.Errorf("NumPages %d -> %d across read queries", pages, got)
	}
	if got := db.WALStats().Commits; got != commits {
		t.Errorf("WAL commits %d -> %d across read queries", commits, got)
	}
}

// queryOrdered is Query 1 with each author's titles in descending
// order — the ORDER BY shape of the paper's Figure 3.
const queryOrdered = `
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

// TestExplainReadsNoPages: EXPLAIN reads nothing of its own from the
// database, also on the first call after a commit. On a 3 000-article
// dblpgen database, right after an InsertDocument, Explain fetches no
// page and ExplainExecute fetches exactly as many as a plain Execute
// of the same query.
func TestExplainReadsNoPages(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 3000, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := New(db, Options{})
	ctx := context.Background()
	inserts := 0
	insert := func() {
		t.Helper()
		inserts++
		doc := xmltree.E("doc_root", xmltree.E("article",
			xmltree.Elem("author", fmt.Sprintf("Writer %d", inserts)),
			xmltree.Elem("title", fmt.Sprintf("Inserted %d", inserts))))
		if _, err := db.InsertDocument(fmt.Sprintf("w%d.xml", inserts), doc, storage.SyncAlways); err != nil {
			t.Fatal(err)
		}
	}
	fetches := func(run func() error) uint64 {
		t.Helper()
		before := db.Stats().Fetches
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return db.Stats().Fetches - before
	}
	for _, text := range []string{query1, paperdata.QueryCountText} {
		pq, err := e.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		o := ExecOptions{Parallelism: 1}
		insert()
		if n := fetches(func() error { pq.Explain(o); return nil }); n != 0 {
			t.Errorf("Explain after a commit fetched %d pages, want 0", n)
		}
		insert()
		plain := fetches(func() error { _, err := pq.Execute(ctx, o); return err })
		explained := fetches(func() error { _, _, err := pq.ExplainExecute(ctx, o); return err })
		if explained != plain {
			t.Errorf("ExplainExecute after a commit fetched %d pages, plain Execute %d", explained, plain)
		}
	}
}

// TestExplainActualsGolden pins ExplainExecute's operator list — name
// and actual rows, in trace pre-order — of the auto (groupby) and
// direct plans for Query 1, the count query and the ORDER BY query, on
// the Figure 6 sample and on a 300-article dblpgen database. Every row
// count equals the one the trace reported when EXPLAIN still printed
// estimates beside it.
func TestExplainActualsGolden(t *testing.T) {
	type golden struct{ auto, direct string }
	// Operator rows as "name=rows", in trace pre-order.
	cases := map[string]map[string]golden{
		"sample": {
			"query1": {
				"exchange: match fragments=5 sort: witnesses=5 materialize: groups=3 scan: member postings=3 select: join author=5 populate: grouping values=5 select: value title=3 mergejoin: values=5 stitch: group boundaries=8",
				"materialize: outer selection=5 sjoin: join path=3 sjoin: step author=5 materialize: product trees=3 eval: RETURN arguments=3"},
			"count": {
				"exchange: match fragments=5 sort: witnesses=5 materialize: groups=3 scan: member postings=3 select: join author=5 populate: grouping values=5 select: value title=3 mergejoin: values=5 stitch: group boundaries=8 aggregate: group counts=6",
				"materialize: outer selection=5 sjoin: join path=3 sjoin: step author=5 materialize: product trees=3 eval: RETURN arguments=3"},
			"ordered": {
				"exchange: match fragments=5 sort: witnesses=5 materialize: groups=3 scan: member postings=3 select: join author=5 populate: grouping values=5 select: value title=3 mergejoin: values=5 select: order title=3 dupelim: order matches=3 populate: ordering values=3 stitch: group boundaries=8",
				"materialize: outer selection=5 sjoin: join path=3 sjoin: step author=5 materialize: product trees=3 eval: RETURN arguments=3"},
		},
		"dblp300": {
			"query1": {
				"exchange: match fragments=713 sort: witnesses=713 materialize: groups=118 scan: member postings=300 select: join author=713 populate: grouping values=713 select: value title=300 mergejoin: values=713 stitch: group boundaries=831",
				"materialize: outer selection=713 sjoin: join path=300 sjoin: step author=713 materialize: product trees=118 eval: RETURN arguments=118"},
			"count": {
				"exchange: match fragments=713 sort: witnesses=713 materialize: groups=118 scan: member postings=300 select: join author=713 populate: grouping values=713 select: value title=300 mergejoin: values=713 stitch: group boundaries=831 aggregate: group counts=236",
				"materialize: outer selection=713 sjoin: join path=300 sjoin: step author=713 materialize: product trees=118 eval: RETURN arguments=118"},
			"ordered": {
				"exchange: match fragments=713 sort: witnesses=713 materialize: groups=118 scan: member postings=300 select: join author=713 populate: grouping values=713 select: value title=300 mergejoin: values=713 select: order title=300 dupelim: order matches=300 populate: ordering values=300 stitch: group boundaries=831",
				"materialize: outer selection=713 sjoin: join path=300 sjoin: step author=713 materialize: product trees=118 eval: RETURN arguments=118"},
		},
	}
	queries := map[string]string{"query1": query1, "count": paperdata.QueryCountText, "ordered": queryOrdered}
	render := func(x *Explain) string {
		var parts []string
		for _, op := range x.Operators {
			parts = append(parts, fmt.Sprintf("%s=%d", op.Op, op.ActualRows))
		}
		return strings.Join(parts, " ")
	}
	for dbName, byQuery := range cases {
		db, err := storage.CreateTemp(storage.Options{PoolPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if dbName == "sample" {
			_, err = db.LoadDocument("bib.xml", paperdata.SampleDatabase())
		} else {
			_, err = dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 300, Seed: 7})
		}
		if err != nil {
			t.Fatal(err)
		}
		e := New(db, Options{})
		for qName, text := range queries {
			want := byQuery[qName]
			pq, err := e.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			for strat, wantOps := range map[exec.Strategy]string{exec.StrategyAuto: want.auto, exec.StrategyDirect: want.direct} {
				x, _, err := pq.ExplainExecute(context.Background(), ExecOptions{Strategy: strat, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := render(x); got != wantOps {
					t.Errorf("%s %s %v: operators\n got %s\nwant %s", dbName, qName, strat, got, wantOps)
				}
			}
		}
	}
}
