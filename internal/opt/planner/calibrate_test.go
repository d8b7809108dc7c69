package planner

import (
	"strings"
	"testing"
)

// TestReadCalibration parses both journal serializations — the
// crash-dump {"kind","payload"} wrapper and bare /debug/events lines —
// skips non-estimate noise, and computes the per-quantity summaries.
func TestReadCalibration(t *testing.T) {
	dump := strings.Join([]string{
		`{"kind":"event","payload":{"seq":1,"type":"plan_decision","label":"groupby","value":100,"count":3}}`,
		`{"kind":"event","payload":{"seq":2,"type":"plan_estimate","label":"groups","count":50,"aux":100,"value":0.5}}`,
		`{"kind":"flight","payload":{"qid":"q1"}}`,
		`{"seq":3,"type":"plan_estimate","label":"groups","count":40,"aux":100,"value":0.6}`,
		`{"seq":4,"type":"plan_estimate","label":"rows","count":100,"aux":100,"value":0}`,
		``,
	}, "\n")
	rep, err := ReadCalibration(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 3 || rep.Lines != 5 {
		t.Errorf("events = %d lines = %d, want 3 and 5", rep.Events, rep.Lines)
	}
	if len(rep.Quantities) != 2 || rep.Quantities[0].Quantity != "groups" || rep.Quantities[1].Quantity != "rows" {
		t.Fatalf("quantities = %+v", rep.Quantities)
	}
	groups := rep.Quantities[0]
	if groups.Samples != 2 || groups.MaxRelErr != 0.6 || groups.MeanRelErr != 0.55 {
		t.Errorf("groups summary = %+v", groups)
	}
	if groups.Bias <= 1.25 || !strings.Contains(groups.Suggestion, "underestimates") {
		t.Errorf("underestimated quantity not flagged: %+v", groups)
	}
	rows := rep.Quantities[1]
	if rows.Bias < 0.8 || rows.Bias > 1.25 || !strings.Contains(rows.Suggestion, "unbiased") {
		t.Errorf("unbiased quantity mis-summarized: %+v", rows)
	}
	if !strings.Contains(CalibrationTable(rep), "groups") {
		t.Error("table missing quantity row")
	}
}

// TestReadCalibrationEmpty: a dump without plan_estimate events is an
// error, not a vacuous report.
func TestReadCalibrationEmpty(t *testing.T) {
	if _, err := ReadCalibration(strings.NewReader(`{"seq":1,"type":"plan_decision","label":"groupby"}`)); err == nil {
		t.Error("no-estimate dump should fail")
	}
}
