package obs

import "sync"

// FlightRecord is one retained query execution: the correlation keys
// that join it to the event journal (QID, WAL sequence range, epoch),
// the headline outcome, and the full operator span tree, so a recent
// query's EXPLAIN-ANALYZE view survives the request that produced it.
// The server files exactly one record per query request, from the
// tracer it passed to the engine, keeps the last N in the journal's
// flight recorder and serves them at /debug/flight.
type FlightRecord struct {
	// QID is the request's query ID.
	QID string `json:"qid"`
	// Query is the source text.
	Query string `json:"query,omitempty"`
	// Strategy is the plan that ran.
	Strategy string `json:"strategy,omitempty"`
	// StartNS is the execution start in Unix nanoseconds.
	StartNS int64 `json:"start_ns,omitempty"`
	// WallNS is the execution wall time.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Rows is the number of result trees.
	Rows int64 `json:"rows,omitempty"`
	// ValueLookups and IndexPostings itemize the run's data accesses
	// (exec.ExecStats; zero for plan-level strategies).
	ValueLookups  int64 `json:"value_lookups,omitempty"`
	IndexPostings int64 `json:"index_postings,omitempty"`
	// Epoch is the committed state the query read.
	Epoch uint64 `json:"epoch,omitempty"`
	// WALSeqLow/High bound the WAL commit sequences that overlapped the
	// execution: every txn_commit event with WALSeqLow < seq <=
	// WALSeqHigh committed while this query ran.
	WALSeqLow  uint64 `json:"wal_seq_low,omitempty"`
	WALSeqHigh uint64 `json:"wal_seq_high,omitempty"`
	// Checkpoints counts checkpoints that completed during the
	// execution.
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// Slow marks records that crossed the server's slow-query
	// threshold (the /debug/flight view of the slow-query log line).
	Slow bool `json:"slow,omitempty"`
	// Error is the failure text for runs that errored.
	Error string `json:"error,omitempty"`
	// Trace is the request's finished span tree, root named by QID.
	Trace *SpanData `json:"trace,omitempty"`
	// Explain is the EXPLAIN report for runs that requested one (typed
	// in the engine; opaque here to keep obs dependency-free).
	Explain any `json:"explain,omitempty"`
}

// flightRing retains the newest N flight records. Additions happen
// once per request — far off the hot path — so a mutex ring is the
// right tool.
type flightRing struct {
	mu   sync.Mutex
	buf  []FlightRecord
	next int
	full bool
}

func newFlightRing(n int) *flightRing {
	return &flightRing{buf: make([]FlightRecord, n)}
}

// AddFlight retains a completed query record, evicting the oldest past
// capacity. Nil-safe.
func (j *Journal) AddFlight(rec FlightRecord) {
	if j == nil {
		return
	}
	r := j.flight
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Flights returns the retained records, newest first. Nil-safe.
func (j *Journal) Flights() []FlightRecord {
	if j == nil {
		return nil
	}
	r := j.flight
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if !r.full {
		n = r.next
	}
	out := make([]FlightRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// FlightByQID returns the newest record for qid. Nil-safe. Empty qid
// never matches — anonymous records cannot be told apart.
func (j *Journal) FlightByQID(qid string) (FlightRecord, bool) {
	if qid != "" {
		for _, rec := range j.Flights() { // newest first
			if rec.QID == qid {
				return rec, true
			}
		}
	}
	return FlightRecord{}, false
}
