package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestJournalNilIsDisabled(t *testing.T) {
	var j *Journal
	j.Emit(Event{Type: EvTxnCommit})
	j.AddFlight(FlightRecord{QID: "q1"})
	if j.Seq() != 0 || j.Capacity() != 0 {
		t.Fatalf("nil journal reported state: seq=%d cap=%d", j.Seq(), j.Capacity())
	}
	if got := j.Events(EventFilter{}); got != nil {
		t.Fatalf("nil journal returned events: %v", got)
	}
	if got := j.Flights(); got != nil {
		t.Fatalf("nil journal returned flights: %v", got)
	}
	if _, ok := j.FlightByQID("q1"); ok {
		t.Fatal("nil journal resolved a flight record")
	}
	if err := j.WriteDump(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteDump: %v", err)
	}
	if path, err := j.DumpToFile(t.TempDir()); err != nil || path != "" {
		t.Fatalf("nil DumpToFile: path=%q err=%v", path, err)
	}
}

func TestJournalEmitAndFilter(t *testing.T) {
	j := NewJournal(64)
	j.Emit(Event{Type: EvTxnCommit, WALSeq: 1, Epoch: 2, Bytes: 128})
	j.Emit(Event{Type: EvQueryDone, QID: "q1", Label: "groupby", Count: 7})
	j.Emit(Event{Type: EvQueryDone, QID: "q2", Label: "direct"})
	j.Emit(Event{Type: EvCheckpoint, WALSeq: 1, Epoch: 3})
	j.Emit(Event{Type: EvNone}) // must be dropped

	if got := j.Seq(); got != 4 {
		t.Fatalf("Seq = %d, want 4", got)
	}
	all := j.Events(EventFilter{})
	if len(all) != 4 {
		t.Fatalf("Events = %d, want 4", len(all))
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
		if e.TimeNS == 0 {
			t.Fatalf("event %d missing timestamp", i)
		}
	}

	byType := j.Events(EventFilter{Types: []EventType{EvQueryDone}})
	if len(byType) != 2 {
		t.Fatalf("type filter matched %d, want 2", len(byType))
	}
	byQID := j.Events(EventFilter{QID: "q2"})
	if len(byQID) != 1 || byQID[0].Label != "direct" {
		t.Fatalf("qid filter: %+v", byQID)
	}
	since := j.Events(EventFilter{SinceSeq: 3})
	if len(since) != 1 || since[0].Type != EvCheckpoint {
		t.Fatalf("since filter: %+v", since)
	}
	limited := j.Events(EventFilter{Limit: 2})
	if len(limited) != 2 || limited[0].Seq != 3 || limited[1].Seq != 4 {
		t.Fatalf("limit filter kept wrong events: %+v", limited)
	}
}

func TestJournalRingOverwrite(t *testing.T) {
	j := NewJournal(8)
	if j.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", j.Capacity())
	}
	for i := 0; i < 20; i++ {
		j.Emit(Event{Type: EvTxnCommit, WALSeq: uint64(i + 1)})
	}
	got := j.Events(EventFilter{})
	if len(got) != 8 {
		t.Fatalf("retained %d events, want 8", len(got))
	}
	// The newest 8 of 20 emissions are sequences 13..20.
	for i, e := range got {
		if want := uint64(13 + i); e.Seq != want {
			t.Fatalf("event %d: Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestJournalSizeRounding(t *testing.T) {
	if got := NewJournal(0).Capacity(); got != DefaultJournalEvents {
		t.Fatalf("NewJournal(0) capacity = %d", got)
	}
	if got := NewJournal(100).Capacity(); got != 128 {
		t.Fatalf("NewJournal(100) capacity = %d, want 128", got)
	}
}

func TestJournalAnomalies(t *testing.T) {
	j := NewJournal(16)
	j.Emit(Event{Type: EvTxnCommit})
	j.Emit(Event{Type: EvQueryError, QID: "q1", Err: "boom"})
	j.Emit(Event{Type: EvTxnAbort, Err: "disk full"})
	got := j.Anomalies()
	if len(got) != 2 {
		t.Fatalf("anomalies = %d, want 2", len(got))
	}
	if got[0].Err != "boom" || got[1].Err != "disk full" {
		t.Fatalf("anomaly order wrong: %+v", got)
	}
	// Anomalies survive the main ring wrapping.
	for i := 0; i < 40; i++ {
		j.Emit(Event{Type: EvTxnCommit})
	}
	if got := j.Anomalies(); len(got) != 2 {
		t.Fatalf("anomalies lost after wrap: %d", len(got))
	}
}

func TestEventTypeRegistry(t *testing.T) {
	infos := EventTypes()
	if len(infos) != int(numEventTypes)-1 {
		t.Fatalf("registry has %d entries, want %d", len(infos), int(numEventTypes)-1)
	}
	seen := map[string]bool{}
	for _, info := range infos {
		if info.Name == "" || info.Doc == "" || info.ConstName == "" {
			t.Fatalf("incomplete registry entry: %+v", info)
		}
		if seen[info.Name] {
			t.Fatalf("duplicate wire name %q", info.Name)
		}
		seen[info.Name] = true
		typ, ok := EventTypeByName(info.Name)
		if !ok || typ != info.Type {
			t.Fatalf("EventTypeByName(%q) = %v, %v", info.Name, typ, ok)
		}
		if typ.String() != info.Name {
			t.Fatalf("String mismatch for %q", info.Name)
		}
	}
	if _, ok := EventTypeByName("nope"); ok {
		t.Fatal("EventTypeByName resolved an unknown name")
	}
	b, err := json.Marshal(EvWALFsync)
	if err != nil || string(b) != `"wal_fsync"` {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}

func TestFlightRecorder(t *testing.T) {
	j := NewJournal(16)
	j.AddFlight(FlightRecord{QID: "q1", Strategy: "groupby", Rows: 3})
	j.AddFlight(FlightRecord{QID: "q2", Strategy: "direct"})

	got := j.Flights()
	if len(got) != 2 || got[0].QID != "q2" || got[1].QID != "q1" {
		t.Fatalf("flights order wrong: %+v", got)
	}
	rec, ok := j.FlightByQID("q1")
	if !ok || rec.Rows != 3 {
		t.Fatalf("FlightByQID(q1) = %+v, %v", rec, ok)
	}
	if _, ok := j.FlightByQID("q9"); ok {
		t.Fatal("resolved unknown qid")
	}
	j.AddFlight(FlightRecord{})
	if _, ok := j.FlightByQID(""); ok {
		t.Fatal("empty qid matched")
	}
	// A newer record for the same qid shadows the older one.
	j.AddFlight(FlightRecord{QID: "q1", Rows: 5})
	if rec, _ := j.FlightByQID("q1"); rec.Rows != 5 {
		t.Fatalf("FlightByQID(q1) = %+v, want the newest record", rec)
	}

	// Eviction past capacity keeps the newest N.
	for i := 0; i < DefaultFlightRecords+5; i++ {
		j.AddFlight(FlightRecord{QID: "bulk"})
	}
	if got := j.Flights(); len(got) != DefaultFlightRecords {
		t.Fatalf("flight retention = %d, want %d", len(got), DefaultFlightRecords)
	}
}

func TestJournalWriteEventsJSONLines(t *testing.T) {
	j := NewJournal(16)
	j.Emit(Event{Type: EvTxnCommit, WALSeq: 9, Epoch: 4})
	j.Emit(Event{Type: EvQueryDone, QID: "q1", DurNS: 1000})
	var buf bytes.Buffer
	if err := j.WriteEvents(&buf, EventFilter{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &struct {
		*Event
		Type string `json:"type"`
	}{Event: &e}); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if e.WALSeq != 9 || e.Epoch != 4 {
		t.Fatalf("decoded event: %+v", e)
	}
	if !strings.Contains(lines[0], `"type":"txn_commit"`) {
		t.Fatalf("type not rendered as wire name: %s", lines[0])
	}
}

func TestJournalDumpToFile(t *testing.T) {
	j := NewJournal(16)
	j.Emit(Event{Type: EvTxnCommit, WALSeq: 1})
	j.Emit(Event{Type: EvQueryError, QID: "q1", Err: "boom"})
	j.AddFlight(FlightRecord{QID: "q1", Strategy: "groupby"})

	dir := t.TempDir()
	path, err := j.DumpToFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, dir) || !strings.Contains(path, "timber-events-") {
		t.Fatalf("dump path: %q", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("dump line not JSON: %v (%s)", err, sc.Text())
		}
		kinds[line.Kind]++
	}
	if kinds["event"] != 2 || kinds["anomaly"] != 1 || kinds["flight"] != 1 {
		t.Fatalf("dump kinds: %v", kinds)
	}
}

// TestJournalConcurrentHammer is the obs-level half of the mandated
// race test: many writers emitting while readers snapshot and the
// flight recorder churns. Run with -race. Asserts no event is lost
// (every writer's count lands in Seq), snapshots are strictly
// monotonic, and retained events are intact (seq within the emitted
// range, type registered).
func TestJournalConcurrentHammer(t *testing.T) {
	const writers, perWriter, readers = 8, 500, 4
	j := NewJournal(256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 3 {
				case 0:
					j.Emit(Event{Type: EvTxnCommit, WALSeq: uint64(i), Bytes: 64})
				case 1:
					j.Emit(Event{Type: EvQueryDone, QID: "q", Count: int64(i)})
				default:
					j.Emit(Event{Type: EvCheckpoint, Epoch: uint64(w)})
				}
				if i%50 == 0 {
					j.AddFlight(FlightRecord{QID: "q", Rows: int64(i)})
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				evs := j.Events(EventFilter{})
				var last uint64
				for _, e := range evs {
					if e.Seq <= last {
						panic("snapshot not strictly monotonic")
					}
					last = e.Seq
					if e.Type == EvNone || int(e.Type) >= int(numEventTypes) {
						panic("corrupt event type in snapshot")
					}
				}
				j.Flights()
				j.FlightByQID("q")
				j.Anomalies()
			}
		}()
	}
	wg.Wait()
	close(done)
	rwg.Wait()

	if got, want := j.Seq(), uint64(writers*perWriter); got != want {
		t.Fatalf("lost writes: Seq = %d, want %d", got, want)
	}
	final := j.Events(EventFilter{})
	if len(final) != j.Capacity() {
		t.Fatalf("final snapshot has %d events, want full ring %d", len(final), j.Capacity())
	}
	for _, e := range final {
		if e.Seq == 0 || e.Seq > uint64(writers*perWriter) {
			t.Fatalf("event with out-of-range seq %d", e.Seq)
		}
	}
}
