package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Query IDs join the observability planes: timber-serve stamps one on
// every request, logs it in each structured log line, names the
// request's span tree with it, and returns it in the X-Query-ID
// response header — so a slow-query log line, its EXPLAIN-ANALYZE
// trace and the client's view of the request can all be correlated.

// qidEntropy distinguishes processes, so IDs from two server restarts
// do not collide in aggregated logs; qidSeq orders IDs within one.
var (
	qidEntropy = rand.Uint32()
	qidSeq     atomic.Uint64
)

// NewQueryID returns a process-unique query identifier, cheap enough
// to mint per request.
func NewQueryID() string {
	return fmt.Sprintf("q-%08x-%06d", qidEntropy, qidSeq.Add(1))
}

type qidKey struct{}

// WithQueryID returns a context carrying the query ID.
func WithQueryID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, qidKey{}, id)
}

// QueryIDFrom returns the query ID carried by ctx, or "" when none is
// set (or ctx is nil).
func QueryIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(qidKey{}).(string)
	return id
}

// OperatorSecondsMetric is the histogram family RecordTree folds span
// trees into: one child per operator-phase name.
const OperatorSecondsMetric = "exec_operator_seconds"

// RecordTree folds a finished per-query span tree into the registry's
// cumulative per-operator wall-time histograms
// (exec_operator_seconds{op=...}) — aggregating across queries what a
// single trace shows for one run. The root stands for the whole query
// (engine_query_seconds already times it) and is named per request, so
// only its descendants are folded: each operator span is observed once,
// labeled by its name. Nil-safe in both arguments.
func RecordTree(r *Registry, d *SpanData) {
	if r == nil || d == nil {
		return
	}
	hv := r.HistogramVec(OperatorSecondsMetric,
		"Cumulative per-operator wall time across all executions, labeled by operator phase.",
		DefaultLatencyBuckets, "op")
	for _, c := range d.Children {
		recordSpans(hv, c)
	}
}

func recordSpans(hv *HistogramVec, d *SpanData) {
	hv.With(d.Name).Observe(float64(d.WallNS) / 1e9)
	for _, c := range d.Children {
		recordSpans(hv, c)
	}
}
