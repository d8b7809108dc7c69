package engine

import (
	"context"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// TestSelfCalibration: ExplainExecute runs of the Sec. 6 queries over
// a journaled database emit one plan_estimate "groups" event per run,
// each carrying the estimate, the run's actual and their relative
// error; plain auto executions build no estimates and emit none.
func TestSelfCalibration(t *testing.T) {
	journal := obs.NewJournal(obs.DefaultJournalEvents)
	db, err := storage.CreateTemp(storage.Options{PoolPages: 1024, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: 300, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := New(db, Options{})
	const runs = 3
	for _, text := range []string{paperdata.Query1Text, paperdata.QueryCountText} {
		pq, err := e.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs; i++ {
			if _, err := pq.Execute(context.Background(), ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(journal.Events(obs.EventFilter{Types: []obs.EventType{obs.EvPlanEstimate}})); n != 0 {
		t.Fatalf("auto executions emitted %d plan_estimate events, want 0", n)
	}
	for _, text := range []string{paperdata.Query1Text, paperdata.QueryCountText} {
		pq, err := e.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs; i++ {
			if _, _, err := pq.ExplainExecute(context.Background(), ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var groups int
	for _, ev := range journal.Events(obs.EventFilter{Types: []obs.EventType{obs.EvPlanEstimate}}) {
		if ev.Label != "groups" {
			continue
		}
		groups++
		if ev.Aux <= 0 {
			t.Errorf("plan_estimate %+v: actual groups %d, want > 0", ev, ev.Aux)
		}
		if ev.Value < 0 {
			t.Errorf("plan_estimate %+v: negative relative error", ev)
		}
	}
	if groups != 2*runs {
		t.Fatalf("groups plan_estimate events = %d, want %d (one per ExplainExecute)", groups, 2*runs)
	}
}

// TestJournalByteIdentity: enabling the event journal must not change
// a single result byte — the journal only observes. Two engines over
// identical data, one journaled and one not, must serialize identical
// results for every strategy at parallelism 1 and 4.
func TestJournalByteIdentity(t *testing.T) {
	mk := func(j *obs.Journal) *Engine {
		t.Helper()
		db, err := storage.CreateTemp(storage.Options{Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
			t.Fatal(err)
		}
		return New(db, Options{})
	}
	plain := mk(nil)
	journal := obs.NewJournal(1024)
	journaled := mk(journal)

	ctx := context.Background()
	strategies := []exec.Strategy{
		0, // auto: groupby when the rewrite applies
		exec.StrategyGroupBy,
		exec.StrategyDirect,
		exec.StrategyDirectBatch,
	}
	for _, par := range []int{1, 4} {
		for _, strat := range strategies {
			o := ExecOptions{Strategy: strat, Parallelism: par}
			pw, err := plain.Prepare(query1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pw.Execute(ctx, o)
			if err != nil {
				t.Fatalf("plain p=%d strat=%v: %v", par, strat, err)
			}
			pj, err := journaled.Prepare(query1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pj.Execute(ctx, o)
			if err != nil {
				t.Fatalf("journaled p=%d strat=%v: %v", par, strat, err)
			}
			if got.Serialize() != want.Serialize() {
				t.Errorf("p=%d strat=%v: journaled results differ from plain", par, strat)
			}
			if got.Strategy != want.Strategy {
				t.Errorf("p=%d strat=%v: strategy %v != %v", par, strat, got.Strategy, want.Strategy)
			}
		}
	}

	// The comparison is not vacuous: the journaled engine emitted
	// query completions while producing identical bytes.
	if journal.Seq() == 0 {
		t.Fatal("journaled engine emitted no events")
	}
	done := journal.Events(obs.EventFilter{Types: []obs.EventType{obs.EvQueryDone}})
	if len(done) == 0 {
		t.Error("no query_done events")
	}
}
