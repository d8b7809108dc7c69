package engine

import (
	"context"
	"testing"

	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

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
