package obs_test

import (
	"context"
	"strings"
	"testing"

	"timber/internal/engine"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

// TestEngineExpositionLints: the registry a served engine exposes —
// storage, engine, exec and Go runtime families — renders a lint-clean
// Prometheus exposition after a real query, with at least one counter,
// one gauge and one labeled histogram, including the per-operator
// latency buckets the run folded in.
func TestEngineExpositionLints(t *testing.T) {
	db, err := storage.CreateTemp(storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	eng := engine.New(db, engine.Options{Metrics: reg})
	pq, err := eng.Prepare(paperdata.Query1Text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute(context.Background(), engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sum, errs := obs.LintExposition([]byte(b.String()))
	for _, e := range errs {
		t.Error(e)
	}
	if sum.Counters < 1 || sum.Gauges < 1 || sum.LabeledHistograms < 1 {
		t.Errorf("exposition coverage below floor (need ≥1 counter, ≥1 gauge, ≥1 labeled histogram): %v", sum)
	}
	if !strings.Contains(b.String(), obs.OperatorSecondsMetric+"_bucket{") {
		t.Errorf("exposition lacks %s buckets:\n%s", obs.OperatorSecondsMetric, b.String())
	}
	t.Log(sum)
}
