package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// LintExposition is a small, dependency-free validator for the
// Prometheus text exposition format — enough of the spec to catch the
// bugs an exposition writer can realistically introduce (bad names,
// broken escaping, duplicate samples, non-cumulative histogram buckets,
// missing +Inf, TYPE after samples). It lives in a test file: the
// package's own tests and TestEngineExpositionLints, which lints a live
// engine's registry, are its only callers.

// ExpositionSummary counts what a lint pass saw, so callers can assert
// coverage requirements ("at least one histogram with labels") beyond
// well-formedness.
type ExpositionSummary struct {
	// Counters, Gauges and Histograms count TYPE-declared families of
	// each kind.
	Counters   int
	Gauges     int
	Histograms int
	// LabeledHistograms counts histogram families with at least one
	// label (beyond le) on their bucket samples.
	LabeledHistograms int
	// LabeledCounters counts counter families with at least one
	// labeled sample.
	LabeledCounters int
	// Samples is the total sample-line count.
	Samples int
}

func (s ExpositionSummary) String() string {
	return fmt.Sprintf("%d counters (%d labeled), %d gauges, %d histograms (%d labeled), %d samples",
		s.Counters, s.LabeledCounters, s.Gauges, s.Histograms, s.LabeledHistograms, s.Samples)
}

type lintState struct {
	types       map[string]string // family -> TYPE
	sampled     map[string]bool   // family base names with samples seen
	seen        map[string]bool   // name{sorted labels} dedup
	labeledFams map[string]bool
	// histogram accounting, keyed by family + label set (minus le)
	buckets map[string]*bucketSeries
	sums    map[string]float64
	counts  map[string]float64
	errs    []error
	sum     ExpositionSummary
}

type bucketSeries struct {
	lastLE  float64
	lastVal float64
	hasInf  bool
	infVal  float64
	ordered bool // le values strictly increasing
	cumul   bool // bucket values non-decreasing
}

// LintExposition validates a Prometheus text exposition. It returns a
// coverage summary and every violation found (nil when the exposition
// is clean).
func LintExposition(data []byte) (ExpositionSummary, []error) {
	st := &lintState{
		types:       map[string]string{},
		sampled:     map[string]bool{},
		seen:        map[string]bool{},
		labeledFams: map[string]bool{},
		buckets:     map[string]*bucketSeries{},
		sums:        map[string]float64{},
		counts:      map[string]float64{},
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		st.lintLine(ln+1, line)
	}
	st.finish()
	return st.sum, st.errs
}

func (st *lintState) errf(ln int, format string, args ...any) {
	st.errs = append(st.errs, fmt.Errorf("line %d: %s", ln, fmt.Sprintf(format, args...)))
}

func (st *lintState) lintLine(ln int, line string) {
	if strings.HasPrefix(line, "#") {
		st.lintComment(ln, line)
		return
	}
	name, labels, value, ok := st.parseSample(ln, line)
	if !ok {
		return
	}
	st.sum.Samples++
	base := histogramBase(name, st.types)
	st.sampled[base] = true

	// Duplicate sample check: name plus the full sorted label set must
	// be unique.
	key := name + "{" + canonicalLabels(labels) + "}"
	if st.seen[key] {
		st.errf(ln, "duplicate sample %s", key)
	}
	st.seen[key] = true

	// Histogram series accounting.
	if st.types[base] == "histogram" {
		switch {
		case name == base+"_bucket":
			st.lintBucket(ln, base, labels, value)
		case name == base+"_sum":
			st.sums[base+"|"+canonicalLabelsExcept(labels, "le")] = value
		case name == base+"_count":
			st.counts[base+"|"+canonicalLabelsExcept(labels, "le")] = value
		default:
			st.errf(ln, "histogram family %q has non-histogram sample %q", base, name)
		}
		nonLE := 0
		for k := range labels {
			if k != "le" {
				nonLE++
			}
		}
		if nonLE > 0 {
			st.labeledFams[base+"#hist"] = true
		}
	} else if len(labels) > 0 && st.types[base] == "counter" {
		st.labeledFams[base+"#ctr"] = true
	}
}

func (st *lintState) lintComment(ln int, line string) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			st.errf(ln, "malformed TYPE line %q", line)
			return
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			st.errf(ln, "TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			st.errf(ln, "unknown TYPE %q for %q", typ, name)
			return
		}
		if _, dup := st.types[name]; dup {
			st.errf(ln, "duplicate TYPE for %q", name)
			return
		}
		if st.sampled[name] {
			st.errf(ln, "TYPE for %q appears after its samples", name)
		}
		st.types[name] = typ
		switch typ {
		case "counter":
			st.sum.Counters++
		case "gauge":
			st.sum.Gauges++
		case "histogram":
			st.sum.Histograms++
		}
	case "HELP":
		if len(fields) < 3 {
			st.errf(ln, "malformed HELP line %q", line)
			return
		}
		if !validMetricName(fields[2]) {
			st.errf(ln, "HELP for invalid metric name %q", fields[2])
		}
	}
}

// parseSample parses `name{k="v",...} value` into its parts.
func (st *lintState) parseSample(ln int, line string) (string, map[string]string, float64, bool) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		st.errf(ln, "malformed sample %q", line)
		return "", nil, 0, false
	}
	name := line[:i]
	if !validMetricName(name) {
		st.errf(ln, "invalid metric name %q", name)
		return "", nil, 0, false
	}
	labels := map[string]string{}
	rest := line[i:]
	if rest[0] == '{' {
		var ok bool
		labels, rest, ok = st.parseLabels(ln, rest)
		if !ok {
			return "", nil, 0, false
		}
	}
	valStr := strings.TrimSpace(rest)
	// A timestamp may follow the value; timber never writes one but the
	// format allows it.
	if j := strings.IndexByte(valStr, ' '); j >= 0 {
		valStr = valStr[:j]
	}
	value, err := parseSampleValue(valStr)
	if err != nil {
		st.errf(ln, "bad sample value %q: %v", valStr, err)
		return "", nil, 0, false
	}
	return name, labels, value, true
}

func (st *lintState) parseLabels(ln int, s string) (map[string]string, string, bool) {
	labels := map[string]string{}
	s = s[1:] // consume {
	for {
		s = strings.TrimLeft(s, " ")
		if len(s) > 0 && s[0] == '}' {
			return labels, s[1:], true
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			st.errf(ln, "unterminated label block")
			return nil, "", false
		}
		lname := strings.TrimSpace(s[:eq])
		if !validLabelName(lname) {
			st.errf(ln, "invalid label name %q", lname)
			return nil, "", false
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			st.errf(ln, "label %q value is not quoted", lname)
			return nil, "", false
		}
		val, rest, ok := unescapeLabelValue(s[1:])
		if !ok {
			st.errf(ln, "label %q has a broken escape or unterminated quote", lname)
			return nil, "", false
		}
		if _, dup := labels[lname]; dup {
			st.errf(ln, "duplicate label %q", lname)
		}
		labels[lname] = val
		s = rest
		if len(s) > 0 && s[0] == ',' {
			s = s[1:]
		}
	}
}

// unescapeLabelValue consumes a label value up to its closing quote,
// validating the escape sequences (\\, \", \n only).
func unescapeLabelValue(s string) (string, string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], true
		case '\\':
			if i+1 >= len(s) {
				return "", "", false
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", false
			}
		case '\n':
			return "", "", false
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", false
}

func (st *lintState) lintBucket(ln int, base string, labels map[string]string, value float64) {
	le, ok := labels["le"]
	if !ok {
		st.errf(ln, "%s_bucket without le label", base)
		return
	}
	key := base + "|" + canonicalLabelsExcept(labels, "le")
	bs := st.buckets[key]
	if bs == nil {
		bs = &bucketSeries{ordered: true, cumul: true}
		st.buckets[key] = bs
	}
	if le == "+Inf" {
		bs.hasInf = true
		bs.infVal = value
		if value < bs.lastVal {
			bs.cumul = false
			st.errf(ln, "%s +Inf bucket %v below previous bucket %v", base, value, bs.lastVal)
		}
		return
	}
	bound, err := strconv.ParseFloat(le, 64)
	if err != nil {
		st.errf(ln, "%s_bucket has unparsable le %q", base, le)
		return
	}
	if bs.lastLE != 0 || bs.lastVal != 0 {
		if bound <= bs.lastLE {
			bs.ordered = false
			st.errf(ln, "%s bucket bounds not increasing: %v after %v", base, bound, bs.lastLE)
		}
		if value < bs.lastVal {
			bs.cumul = false
			st.errf(ln, "%s buckets not cumulative: %v after %v", base, value, bs.lastVal)
		}
	}
	bs.lastLE, bs.lastVal = bound, value
}

// finish runs the whole-series checks that need every line first.
func (st *lintState) finish() {
	for key, bs := range st.buckets {
		base := key[:strings.IndexByte(key, '|')]
		series := strings.TrimPrefix(key, base+"|")
		where := base
		if series != "" {
			where = fmt.Sprintf("%s{%s}", base, series)
		}
		if !bs.hasInf {
			st.errs = append(st.errs, fmt.Errorf("histogram %s has no +Inf bucket", where))
		}
		cnt, ok := st.counts[key]
		if !ok {
			st.errs = append(st.errs, fmt.Errorf("histogram %s has buckets but no _count", where))
		} else if bs.hasInf && cnt != bs.infVal {
			st.errs = append(st.errs, fmt.Errorf("histogram %s _count %v != +Inf bucket %v", where, cnt, bs.infVal))
		}
		if _, ok := st.sums[key]; !ok {
			st.errs = append(st.errs, fmt.Errorf("histogram %s has buckets but no _sum", where))
		}
	}
	for fam := range st.labeledFams {
		if strings.HasSuffix(fam, "#hist") {
			st.sum.LabeledHistograms++
		} else {
			st.sum.LabeledCounters++
		}
	}
}

// histogramBase maps a sample name to its family name: _bucket/_sum/
// _count samples of a TYPE-histogram family report under the base.
func histogramBase(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func canonicalLabels(labels map[string]string) string {
	return canonicalLabelsExcept(labels, "")
}

func canonicalLabelsExcept(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

const validExposition = `# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total{path="/query",code="200"} 12
requests_total{path="/query",code="400"} 2
# TYPE inflight gauge
inflight 3
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{op="scan",le="0.01"} 1
lat_seconds_bucket{op="scan",le="0.1"} 4
lat_seconds_bucket{op="scan",le="+Inf"} 5
lat_seconds_sum{op="scan"} 0.42
lat_seconds_count{op="scan"} 5
`

func TestLintValidExposition(t *testing.T) {
	sum, errs := LintExposition([]byte(validExposition))
	for _, err := range errs {
		t.Error(err)
	}
	if sum.Counters != 1 || sum.Gauges != 1 || sum.Histograms != 1 {
		t.Errorf("summary = %v", sum)
	}
	if sum.LabeledCounters != 1 || sum.LabeledHistograms != 1 {
		t.Errorf("summary = %v, want labeled counter and histogram seen", sum)
	}
	if sum.Samples != 8 {
		t.Errorf("samples = %d, want 8", sum.Samples)
	}
}

// lintErrs returns the joined error text for a broken exposition and
// fails the test when it lints clean.
func lintErrs(t *testing.T, broken, wantSubstr string) {
	t.Helper()
	_, errs := LintExposition([]byte(broken))
	if len(errs) == 0 {
		t.Fatalf("exposition should not lint clean:\n%s", broken)
	}
	var all []string
	for _, err := range errs {
		all = append(all, err.Error())
	}
	joined := strings.Join(all, "; ")
	if !strings.Contains(joined, wantSubstr) {
		t.Errorf("errors %q do not mention %q", joined, wantSubstr)
	}
}

func TestLintCatchesBrokenExpositions(t *testing.T) {
	t.Run("non-cumulative buckets", func(t *testing.T) {
		lintErrs(t, `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`, "not cumulative")
	})
	t.Run("bounds not increasing", func(t *testing.T) {
		lintErrs(t, `# TYPE h histogram
h_bucket{le="2"} 1
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 2
h_sum 1
h_count 2
`, "not increasing")
	})
	t.Run("missing +Inf", func(t *testing.T) {
		lintErrs(t, `# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`, "no +Inf")
	})
	t.Run("count disagrees with +Inf", func(t *testing.T) {
		lintErrs(t, `# TYPE h histogram
h_bucket{le="1"} 1
h_bucket{le="+Inf"} 2
h_sum 1
h_count 7
`, "_count 7 != +Inf bucket 2")
	})
	t.Run("missing sum", func(t *testing.T) {
		lintErrs(t, `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_count 1
`, "no _sum")
	})
	t.Run("bad escape", func(t *testing.T) {
		lintErrs(t, `# TYPE c counter
c{v="a\qb"} 1
`, "broken escape")
	})
	t.Run("unterminated quote", func(t *testing.T) {
		lintErrs(t, `# TYPE c counter
c{v="abc} 1
`, "broken escape or unterminated")
	})
	t.Run("duplicate sample", func(t *testing.T) {
		lintErrs(t, `# TYPE c counter
c{v="a"} 1
c{v="a"} 2
`, "duplicate sample")
	})
	t.Run("TYPE after samples", func(t *testing.T) {
		lintErrs(t, `c 1
# TYPE c counter
`, "after its samples")
	})
	t.Run("duplicate TYPE", func(t *testing.T) {
		lintErrs(t, `# TYPE c counter
# TYPE c counter
c 1
`, "duplicate TYPE")
	})
	t.Run("bad metric name", func(t *testing.T) {
		lintErrs(t, `0bad 1
`, "invalid metric name")
	})
	t.Run("bad label name", func(t *testing.T) {
		lintErrs(t, `# TYPE c counter
c{0bad="x"} 1
`, "invalid label name")
	})
	t.Run("bad value", func(t *testing.T) {
		lintErrs(t, `# TYPE c counter
c potato
`, "bad sample value")
	})
	t.Run("unknown type", func(t *testing.T) {
		lintErrs(t, `# TYPE c widget
c 1
`, "unknown TYPE")
	})
}

func TestLintAllowsFormatLegalities(t *testing.T) {
	// Timestamps, escaped label values, +Inf/NaN values and untyped
	// samples are all legal.
	_, errs := LintExposition([]byte(`# TYPE c counter
c{v="a\\b\"c\nd"} 1 1712345678000
untyped_thing 3
weird NaN
edge +Inf
`))
	for _, err := range errs {
		t.Error(err)
	}
}
