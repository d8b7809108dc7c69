package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// The traced run records the harness's own spans around the calls into
// each layer. Per operation the root span is the timed end-to-end call
// itself; under it the harness replays the operation's stages through
// the layers' public functions, one after the other, and hangs each
// replay's duration under the stage that contains it. A replayed span
// is therefore an estimate of where the root's time went, not a
// measurement taken inside it — spans inside the program are a later
// change. A layer's self time is its span minus what its children
// cover; the root's own self time is what no replay explains and is
// reported as unaccounted.

// Layer names: the repository's module names.
const (
	layerRoot     = "end-to-end"
	layerEngine   = "engine"
	layerPlanner  = "opt/planner"
	layerExec     = "exec"
	layerMatch    = "match"
	layerTagscan  = "storage.tagscan"
	layerContent  = "storage.content"
	layerXMLTree  = "xmltree"
	layerServerOp = "server (engine and below)"
)

// span is one recorded interval. Start and End are nanoseconds since
// the trace began; Parent is the ID of the causing span, -1 for a root.
type span struct {
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

// stage is one node of an operation's stage tree before it is laid out
// as spans: a name, the layer it charges, its measured duration and
// the stages it contains.
type stage struct {
	Name     string
	Layer    string
	Dur      time.Duration
	Children []stage
}

// trace keeps every span of a traced window in memory; it is written
// out once, when the window ends.
type trace struct {
	t0    time.Time
	spans []span
	// clampedNS is replay time that did not fit inside its parent (a
	// replay that ran slower than the stage it stands for) and was cut
	// so that spans nest.
	clampedNS int64
}

func newTrace() *trace { return &trace{t0: time.Now()} }

// addOp lays one operation's stage tree out as spans: the root covers
// [start, start+root.Dur]; children start where the previous sibling
// ended and are cut at their parent's end.
func (t *trace) addOp(op int, start time.Time, root stage) {
	s := start.Sub(t.t0).Nanoseconds()
	t.place(op, -1, root, s, s+root.Dur.Nanoseconds(), false)
}

func (t *trace) place(op, parent int, st stage, from, limit int64, replayed bool) int64 {
	end := from + st.Dur.Nanoseconds()
	if end > limit {
		t.clampedNS += end - limit
		end = limit
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: st.Name, Layer: st.Layer, Start: from, End: end, Replayed: replayed})
	cursor := from
	for _, c := range st.Children {
		cursor = t.place(op, id, c, cursor, end, true)
	}
	return end
}

// selfTimes returns, per span ID, the span's duration minus the part
// of it its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// checkNesting verifies the structural invariants of a trace: IDs are
// positions, every child lies inside its parent and belongs to the
// same operation, and no span runs backwards.
func checkNesting(spans []span) error {
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("trace: span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("trace: span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= len(spans) {
			return fmt.Errorf("trace: span %d (%s) has unknown parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("trace: span %d (%s) does not nest in its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// layerShares folds a trace into each layer's share of the summed root
// time, in percent. The roots' own self time is returned separately:
// it is the part of the end-to-end time no layer span accounts for.
func layerShares(spans []span) (shares map[string]float64, unaccountedPct float64, rootNS int64) {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var rootSelf int64
	for i, s := range spans {
		if s.Parent < 0 {
			rootNS += s.End - s.Start
			rootSelf += self[i]
			continue
		}
		byLayer[s.Layer] += self[i]
	}
	shares = map[string]float64{}
	if rootNS == 0 {
		return shares, 0, 0
	}
	for l, ns := range byLayer {
		shares[l] = 100 * float64(ns) / float64(rootNS)
	}
	return shares, 100 * float64(rootSelf) / float64(rootNS), rootNS
}

// shareTable renders the per-layer share table of a traced window.
func shareTable(spans []span) string {
	shares, unacc, rootNS := layerShares(spans)
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return shares[layers[a]] > shares[layers[b]] })
	roots := 0
	for _, s := range spans {
		if s.Parent < 0 {
			roots++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  %-28s %8s\n", "layer (self time)", "share")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-28s %7.2f%%\n", l, shares[l])
	}
	fmt.Fprintf(&b, "  %-28s %7.2f%%\n", "unaccounted (root self)", unacc)
	fmt.Fprintf(&b, "  %d operations, %.1f ms of root time\n", roots, float64(rootNS)/1e6)
	return b.String()
}

// traceFile is the on-disk form of one traced window.
type traceFile struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	ClampedNS int64  `json:"clamped_ns"`
	Spans     []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, t *trace) error {
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, ClampedNS: t.clampedNS, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
