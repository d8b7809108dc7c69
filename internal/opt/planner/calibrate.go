package planner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// CalibrationQuantity summarizes the planner's estimation error for
// one estimated quantity (one plan_estimate label) across a journal's
// worth of executions.
type CalibrationQuantity struct {
	Quantity string
	Samples  int
	// MeanRelErr / MedianRelErr / MaxRelErr aggregate the per-event
	// relative errors (|est - actual| / max(actual, 1)).
	MeanRelErr   float64
	MedianRelErr float64
	MaxRelErr    float64
	// Bias is the geometric mean of actual/estimate: > 1 means the
	// planner systematically underestimates, < 1 overestimates. A
	// +1 smoothing on both sides keeps zero counts finite. It is also
	// the multiplier that would zero the bias — the calibration knob
	// for the estimate (or the cost constant it feeds).
	Bias float64
	// Suggestion says what to do about it, in words.
	Suggestion string
}

// CalibrationReport is the planner's estimation accuracy recovered
// from the plan_estimate events of a journal dump, per quantity.
type CalibrationReport struct {
	// Lines and Events count the journal lines read and the
	// plan_estimate events among them.
	Lines  int
	Events int

	Quantities []CalibrationQuantity
}

// dumpLine matches both journal serializations: the crash-dump wrapper
// {"kind": "event", "payload": {...}} and the bare /debug/events line
// {...}. Unknown kinds (flight records, anomalies) are skipped.
type dumpLine struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
	// Bare-event fields, used when Kind is empty.
	Type  string  `json:"type"`
	Label string  `json:"label"`
	Count int64   `json:"count"`
	Aux   int64   `json:"aux"`
	Value float64 `json:"value"`
}

// ReadCalibration parses a journal dump (crash-dump JSONL or
// /debug/events output), extracts the plan_estimate events — estimate
// in count, actual in aux, relative error in value, quantity in label
// — and summarizes the planner's estimation accuracy per quantity.
func ReadCalibration(r io.Reader) (*CalibrationReport, error) {
	rep := &CalibrationReport{}
	type sample struct{ est, actual, relErr float64 }
	byQuantity := map[string][]sample{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rep.Lines++
		var dl dumpLine
		if err := json.Unmarshal(line, &dl); err != nil {
			return nil, fmt.Errorf("planner: calibrate: line %d: %v", rep.Lines, err)
		}
		if dl.Kind != "" {
			// Dump wrapper: only event payloads can carry plan_estimate.
			if dl.Kind != "event" {
				continue
			}
			if err := json.Unmarshal(dl.Payload, &dl); err != nil {
				return nil, fmt.Errorf("planner: calibrate: line %d payload: %v", rep.Lines, err)
			}
		}
		if dl.Type != "plan_estimate" || dl.Label == "" {
			continue
		}
		rep.Events++
		byQuantity[dl.Label] = append(byQuantity[dl.Label],
			sample{est: float64(dl.Count), actual: float64(dl.Aux), relErr: dl.Value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rep.Events == 0 {
		return nil, fmt.Errorf("planner: calibrate: no plan_estimate events in %d lines — run auto-strategy queries with the journal on first", rep.Lines)
	}

	for quantity, samples := range byQuantity {
		q := CalibrationQuantity{Quantity: quantity, Samples: len(samples)}
		errs := make([]float64, len(samples))
		logBias := 0.0
		for i, s := range samples {
			errs[i] = s.relErr
			q.MeanRelErr += s.relErr
			if s.relErr > q.MaxRelErr {
				q.MaxRelErr = s.relErr
			}
			logBias += math.Log((s.actual + 1) / (s.est + 1))
		}
		q.MeanRelErr /= float64(len(samples))
		sort.Float64s(errs)
		q.MedianRelErr = errs[len(errs)/2]
		q.Bias = math.Exp(logBias / float64(len(samples)))
		switch {
		case q.Bias > 1.25:
			q.Suggestion = fmt.Sprintf("planner underestimates %s by ~%.2fx; scale the %s estimate (or the cost constants it feeds) up by that factor, or re-run ANALYZE for fresher distinct-value counts", quantity, q.Bias, quantity)
		case q.Bias < 0.8:
			q.Suggestion = fmt.Sprintf("planner overestimates %s by ~%.2fx; scale the %s estimate down by %.2fx, or re-run ANALYZE for fresher distinct-value counts", quantity, 1/q.Bias, quantity, 1/q.Bias)
		default:
			q.Suggestion = fmt.Sprintf("%s estimates are unbiased within 25%%; no cost-constant change indicated", quantity)
		}
		rep.Quantities = append(rep.Quantities, q)
	}
	sort.Slice(rep.Quantities, func(a, b int) bool { return rep.Quantities[a].Quantity < rep.Quantities[b].Quantity })
	return rep, nil
}

// CalibrationTable renders the report as an aligned text table, one
// row per quantity, followed by the suggestions.
func CalibrationTable(r *CalibrationReport) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-12s %8s %12s %12s %12s %8s\n", "quantity", "samples", "mean relerr", "med relerr", "max relerr", "bias")
	for _, q := range r.Quantities {
		fmt.Fprintf(&b, "%-12s %8d %12.3f %12.3f %12.3f %8.2f\n",
			q.Quantity, q.Samples, q.MeanRelErr, q.MedianRelErr, q.MaxRelErr, q.Bias)
	}
	for _, q := range r.Quantities {
		fmt.Fprintf(&b, "  %s\n", q.Suggestion)
	}
	return b.String()
}
