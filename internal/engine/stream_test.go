package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"timber/internal/exec"
)

// The facade is unchanged by the streaming executor refactor: the
// default groupby strategy runs the iterator pipeline through
// Prepare/Execute, its groups equal the logical reference's, and its
// trees and stats are byte-identical at every parallelism. The
// materializing groupby executor recorded these stats on the sample
// database, plus one look-up per author witness that ranking the
// grouping values from the value index removed.
func TestFacadeStreamingMatchesMaterialized(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	logical, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyLogical})
	if err != nil {
		t.Fatal(err)
	}
	want := exec.ExecStats{IndexPostings: 11, ValueLookups: 5, Groups: 3}
	var wantBytes string
	for _, p := range []int{1, 4} {
		got, err := pq.Execute(ctx, ExecOptions{Strategy: exec.StrategyGroupBy, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(groupRows(got), groupRows(logical)) {
			t.Errorf("p=%d: groups = %v, want %v", p, groupRows(got), groupRows(logical))
		}
		if wantBytes == "" {
			wantBytes = got.Serialize()
		} else if got.Serialize() != wantBytes {
			t.Errorf("p=%d: streaming trees differ from p=1", p)
		}
		if got.Stats != want {
			t.Errorf("p=%d: stats = %+v, want %+v", p, got.Stats, want)
		}
	}
}

// TestFacadeMaterializeLimit pins the -maxmem plumbing: the cap
// travels ExecOptions → exec.Options, an exceeded budget surfaces
// exec.ErrMaterializeLimit with no result, and a spill-enabled run
// still matches.
func TestFacadeMaterializeLimit(t *testing.T) {
	e := sampleEngine(t, Options{})
	pq, err := e.Prepare(query1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := pq.Execute(ctx, ExecOptions{MaxMaterializeBytes: 1})
	if !errors.Is(err, exec.ErrMaterializeLimit) {
		t.Fatalf("err = %v, want ErrMaterializeLimit", err)
	}
	if res != nil {
		t.Fatalf("partial result: %+v", res)
	}
	full, err := pq.Execute(ctx, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := pq.Execute(ctx, ExecOptions{SortMemRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(spilled.Trees) != len(full.Trees) || spilled.Stats != full.Stats {
		t.Errorf("spilled run diverged: %+v vs %+v", spilled.Stats, full.Stats)
	}
}
