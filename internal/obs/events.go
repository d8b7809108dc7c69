package obs

import (
	"fmt"
	"sort"
)

// EventType identifies one kind of journal event. Every type emitted
// anywhere in the tree must be registered in eventInfos below — the
// schema test (TestEventSchema) fails when an emission site
// references an unregistered type, when a registered type carries no
// documentation, or when a registered type is never emitted. The
// registry is the single source of truth the /debug/events filter and
// DESIGN.md §7.3 are checked against.
type EventType uint8

const (
	// EvNone is the zero value; Emit rejects it.
	EvNone EventType = iota
	// EvTxnBegin marks a write transaction opening (ingest insert or
	// delete) while the commit lock is held.
	EvTxnBegin
	// EvTxnCommit marks a transaction's WAL commit record being
	// appended and the writer tip advancing.
	EvTxnCommit
	// EvTxnAbort marks a failed transaction releasing its fresh pages.
	EvTxnAbort
	// EvWALFsync marks a group-commit leader fsync making a WAL prefix
	// durable (followers satisfied by the same flush do not emit).
	EvWALFsync
	// EvCheckpoint marks a checkpoint: data pages flushed, meta page
	// written, WAL reset.
	EvCheckpoint
	// EvRecovery marks crash recovery on open: committed WAL
	// transactions replayed, torn tail truncated, meta fallback taken.
	EvRecovery
	// EvPagesRetired marks a commit queueing superseded pages for
	// epoch- and durability-gated reclamation.
	EvPagesRetired
	// EvPagesReclaimed marks retired pages returning to the allocator.
	EvPagesReclaimed
	// EvQueryDone marks a query execution completing.
	EvQueryDone
	// EvQueryError marks a query execution failing (also retained in
	// the anomaly ring).
	EvQueryError
	// EvSlowQuery marks an execution at or above the server's
	// slow-query threshold, with its WAL/checkpoint overlap.
	EvSlowQuery

	numEventTypes // sentinel; keep last
)

// EventTypeInfo documents one registered event type for the schema
// test and the /debug endpoints.
type EventTypeInfo struct {
	Type EventType `json:"-"`
	// ConstName is the Go identifier emission sites use (obs.EvXxx).
	ConstName string `json:"const"`
	// Name is the wire spelling (snake_case) used in JSON output and
	// the /debug/events?type= filter.
	Name string `json:"name"`
	// Doc is the one-line description; TestEventSchema requires it
	// non-empty and requires Name to appear in DESIGN.md §7.3.
	Doc string `json:"doc"`
}

// eventInfos is the registry. Index = EventType.
var eventInfos = [numEventTypes]EventTypeInfo{
	EvTxnBegin:       {EvTxnBegin, "EvTxnBegin", "txn_begin", "Write transaction opened (label: kind:document; epoch: base state)."},
	EvTxnCommit:      {EvTxnCommit, "EvTxnCommit", "txn_commit", "WAL commit appended; tip advanced (wal_seq, epoch, count: fresh pages, bytes: WAL bytes appended, dur_ns: build+log time)."},
	EvTxnAbort:       {EvTxnAbort, "EvTxnAbort", "txn_abort", "Write transaction failed and released its fresh pages (err: cause)."},
	EvWALFsync:       {EvWALFsync, "EvWALFsync", "wal_fsync", "Group-commit leader fsync (wal_seq: highest sequence covered, dur_ns: fsync latency)."},
	EvCheckpoint:     {EvCheckpoint, "EvCheckpoint", "checkpoint", "Checkpoint completed (wal_seq, epoch, bytes: WAL length before reset, dur_ns)."},
	EvRecovery:       {EvRecovery, "EvRecovery", "recovery", "Crash recovery replayed the WAL (wal_seq: last committed, bytes: committed prefix length, count: records replayed, aux: pages restored, label: torn_tail/meta_fallback flags)."},
	EvPagesRetired:   {EvPagesRetired, "EvPagesRetired", "pages_retired", "Superseded pages queued for reclamation (count; epoch/wal_seq: freeing commit)."},
	EvPagesReclaimed: {EvPagesReclaimed, "EvPagesReclaimed", "pages_reclaimed", "Retired pages returned to the allocator (count)."},
	EvQueryDone:      {EvQueryDone, "EvQueryDone", "query_done", "Query completed (qid, label: strategy, dur_ns: wall, count: result trees, aux: value lookups, bytes: index postings read)."},
	EvQueryError:     {EvQueryError, "EvQueryError", "query_error", "Query failed (qid, label: strategy, err; retained in the anomaly ring)."},
	EvSlowQuery:      {EvSlowQuery, "EvSlowQuery", "slow_query", "Execution at/above the slow-query threshold (qid, dur_ns, label: strategy, aux: first overlapping wal_seq, wal_seq: last, count: checkpoints overlapped)."},
}

// String returns the type's wire name ("?" for unregistered values).
func (t EventType) String() string {
	if int(t) < len(eventInfos) && eventInfos[t].Name != "" {
		return eventInfos[t].Name
	}
	return fmt.Sprintf("?ev%d", uint8(t))
}

// MarshalJSON renders the wire name as a JSON string.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// EventTypeByName resolves a wire name to its type (for filters).
func EventTypeByName(name string) (EventType, bool) {
	for i := range eventInfos {
		if eventInfos[i].Name == name && eventInfos[i].Name != "" {
			return EventType(i), true
		}
	}
	return EvNone, false
}

// EventTypes returns the registered types sorted by wire name — the
// schema TestEventSchema validates and /debug/events documents.
func EventTypes() []EventTypeInfo {
	out := make([]EventTypeInfo, 0, len(eventInfos))
	for i := range eventInfos {
		if eventInfos[i].Name != "" {
			out = append(out, eventInfos[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Event is one structured journal entry. One fixed struct serves every
// type: the generic numeric fields (Count, Aux, Bytes, Value) carry
// per-type meanings documented in the registry above, so emission
// allocates nothing beyond the entry itself and the ring needs no
// per-type storage. Correlation keys: QID joins an event to a query's
// trace, log line and flight record; WALSeq and Epoch join it to the
// commits and checkpoints it overlapped.
type Event struct {
	// Seq is the journal-assigned sequence number: strictly increasing
	// in emission order, never reused. Stamped by Emit.
	Seq uint64 `json:"seq"`
	// TimeNS is the wall-clock emission time in Unix nanoseconds.
	// Stamped by Emit.
	TimeNS int64 `json:"time_ns"`
	// Type classifies the event; see the registry.
	Type EventType `json:"type"`
	// QID is the query ID, when the event belongs to a request.
	QID string `json:"qid,omitempty"`
	// WALSeq is the WAL commit sequence the event refers to.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Epoch is the storage epoch the event refers to.
	Epoch uint64 `json:"epoch,omitempty"`
	// DurNS is the event's duration in nanoseconds.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Bytes is a byte quantity (WAL bytes, committed prefix, ...).
	Bytes int64 `json:"bytes,omitempty"`
	// Count is the event's primary count (pages, rows, tags, ...).
	Count int64 `json:"count,omitempty"`
	// Aux is the event's secondary count (actuals, low bounds, ...).
	Aux int64 `json:"aux,omitempty"`
	// Value is a ratio or cost.
	Value float64 `json:"value,omitempty"`
	// Label carries a bounded string: strategy, kind:document, flags.
	Label string `json:"label,omitempty"`
	// Err is the error text of failure events; any event with a
	// non-empty Err is also retained in the anomaly ring.
	Err string `json:"err,omitempty"`
}
