package engine

import (
	"bytes"
	"context"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/opt/planner"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// TestSelfCalibration closes the planner-calibration loop in process:
// auto-strategy executions of the Sec. 6 queries over a journaled
// database emit plan_estimate events, and the journal's own dump reads
// back through planner.ReadCalibration — the reader `timber stats
// -calibrate` runs on operator dumps — as one quantity per estimate with
// the repeated samples counted.
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
	var dump bytes.Buffer
	if err := journal.WriteDump(&dump); err != nil {
		t.Fatal(err)
	}
	rep, err := planner.ReadCalibration(&dump)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d events in %d lines\n%s", rep.Events, rep.Lines, planner.CalibrationTable(rep))
	var groups *planner.CalibrationQuantity
	for i, q := range rep.Quantities {
		if q.Samples == 0 || q.Bias <= 0 || q.Suggestion == "" {
			t.Errorf("degenerate quantity summary %+v", q)
		}
		if q.Quantity == "groups" {
			groups = &rep.Quantities[i]
		}
	}
	if groups == nil || groups.Samples != 2*runs {
		t.Fatalf("groups quantity = %+v, want %d samples (one per auto execution)", groups, 2*runs)
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
		0, // auto: the planner decides
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
