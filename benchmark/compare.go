package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// minPairs is how many paired sets a claim of a gain needs.
const minPairs = 10

// compareRow judges one metric on one workload: a is the base, b the
// candidate. The rules are those of the choosing-metrics guide:
//
//   - regressed when b's median is worse than a's by more than the
//     metric's bound;
//   - improved when at least ten pairs were run (set i of a against
//     set i of b, ties for neither: -repeat 10 on both sides), b wins
//     nine tenths of them, and the medians differ by more than a's own
//     interquartile range — two runs of three sets of the same commit
//     "win" every pair one time in four;
//   - unresolved when neither holds and a's spread is wider than the
//     bound, so the runs could not have shown a regression of that
//     size;
//   - within bound otherwise.
func compareRow(m metricDef, a, b metricSummary) (ratio float64, verdict string) {
	if a.Median != 0 {
		ratio = b.Median / a.Median
	}
	sign := 1.0 // positive delta = worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (b.Median - a.Median)
	if worse > m.Bound*math.Abs(a.Median) {
		return ratio, verdictRegressed
	}
	pairs, wins := 0, 0
	for i := 0; i < len(a.Values) && i < len(b.Values); i++ {
		if d := sign * (b.Values[i] - a.Values[i]); d < 0 {
			wins++
			pairs++
		} else if d > 0 {
			pairs++
		}
	}
	if pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && -worse > a.Q3-a.Q1 {
		return ratio, verdictImproved
	}
	if a.Spread > m.Bound {
		return ratio, verdictUnresolved
	}
	return ratio, verdictWithin
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether anything regressed or the failed share rose.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Environment.Seed != b.Environment.Seed || a.Environment.Scale != b.Environment.Scale || a.Environment.Seconds != b.Environment.Seconds {
		return false, fmt.Errorf("the files were recorded with different settings (seed %d/%d, scale %g/%g, seconds %g/%g): measure both sides the same way",
			a.Environment.Seed, b.Environment.Seed, a.Environment.Scale, b.Environment.Scale, a.Environment.Seconds, b.Environment.Seconds)
	}
	fmt.Fprintf(out, "base %s (%s, %d sets)  vs  %s (%s, %d sets)\n", pathA, a.Environment.Commit, a.Sets, pathB, b.Environment.Commit, b.Sets)
	fmt.Fprintf(out, "%-18s %-34s %34s %34s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "new/base", "verdict")
	byName := map[string]workloadSummary{}
	for _, w := range b.Workloads {
		byName[w.Workload] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			return false, fmt.Errorf("%s has no workload %s", pathB, wa.Workload)
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			ratio, verdict := compareRow(m, sa, sb)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(out, "%-18s %-34s %12.4f [%9.4f,%9.4f] %12.4f [%9.4f,%9.4f] %8.3f  %s\n",
				wa.Workload, m.Name+" ("+m.Unit+")", sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, ratio, verdict)
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if shareB > shareA {
			regressed = true
			fmt.Fprintf(out, "%-18s failed share rose from %.4f (%d of %d) to %.4f (%d of %d)\n",
				wa.Workload, shareA, wa.Failed, wa.Attempted, shareB, wb.Failed, wb.Attempted)
		}
	}
	return regressed, nil
}
