package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"timber/internal/engine"
	"timber/internal/obs"
	"timber/internal/paperdata"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// testServerEvents is testServer with the event journal enabled — the
// -events N configuration.
func testServerEvents(t *testing.T, cfg config) *server {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{Journal: obs.NewJournal(4096)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	return newServer(engine.New(db, engine.Options{}), cfg)
}

// eventLine mirrors the journal's JSON-lines wire shape for tests.
type eventLine struct {
	Seq    uint64 `json:"seq"`
	Type   string `json:"type"`
	QID    string `json:"qid"`
	WALSeq uint64 `json:"wal_seq"`
	Epoch  uint64 `json:"epoch"`
	DurNS  int64  `json:"dur_ns"`
	Count  int64  `json:"count"`
	Aux    int64  `json:"aux"`
	Label  string `json:"label"`
	Err    string `json:"err"`
}

func getDebug(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func parseEventLines(t *testing.T, body string) []eventLine {
	t.Helper()
	var out []eventLine
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var ev eventLine
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparsable event line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestDebugEvents: /debug/events streams the journal as JSON lines and
// honors the type/qid/since/limit filters; ?schema=1 lists the
// registered taxonomy; unknown type names are a 400.
func TestDebugEvents(t *testing.T) {
	s := testServerEvents(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", resp.StatusCode, raw)
	}
	qid := resp.Header.Get("X-Query-ID")

	dresp, dbody := getDebug(t, ts, "/debug/events")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events status = %d, body %s", dresp.StatusCode, dbody)
	}
	if ct := dresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	events := parseEventLines(t, dbody)
	if len(events) == 0 {
		t.Fatal("no events after a query")
	}
	var maxSeq uint64
	foundDone := false
	for i, ev := range events {
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("events not in seq order: %d after %d", ev.Seq, events[i-1].Seq)
		}
		if ev.Seq > maxSeq {
			maxSeq = ev.Seq
		}
		if ev.Type == "query_done" && ev.QID == qid {
			foundDone = true
			if ev.DurNS <= 0 || ev.Count <= 0 {
				t.Errorf("query_done missing duration/rows: %+v", ev)
			}
		}
	}
	if !foundDone {
		t.Errorf("no query_done event for qid %q in:\n%s", qid, dbody)
	}

	// type filter.
	_, fbody := getDebug(t, ts, "/debug/events?type=query_done")
	for _, ev := range parseEventLines(t, fbody) {
		if ev.Type != "query_done" {
			t.Errorf("type filter leaked %q", ev.Type)
		}
	}

	// qid filter.
	_, qbody := getDebug(t, ts, "/debug/events?qid="+qid)
	qevents := parseEventLines(t, qbody)
	if len(qevents) == 0 {
		t.Errorf("qid filter matched nothing for %q", qid)
	}
	for _, ev := range qevents {
		if ev.QID != qid {
			t.Errorf("qid filter leaked %q", ev.QID)
		}
	}

	// since is a resumption cursor: a fresh query's events all land
	// past the previously observed maximum.
	if resp2, raw2 := postQuery(t, ts, string(body)); resp2.StatusCode != http.StatusOK {
		t.Fatalf("second query status = %d, body %s", resp2.StatusCode, raw2)
	}
	_, sbody := getDebug(t, ts, fmt.Sprintf("/debug/events?since=%d", maxSeq))
	sevents := parseEventLines(t, sbody)
	if len(sevents) == 0 {
		t.Error("since cursor returned nothing after a new query")
	}
	for _, ev := range sevents {
		if ev.Seq <= maxSeq {
			t.Errorf("since=%d returned seq %d", maxSeq, ev.Seq)
		}
	}

	// limit keeps the newest N.
	_, lbody := getDebug(t, ts, "/debug/events?limit=1")
	if levents := parseEventLines(t, lbody); len(levents) != 1 {
		t.Errorf("limit=1 returned %d events", len(levents))
	}

	// Unknown type names are a client error, not an empty stream.
	if bresp, _ := getDebug(t, ts, "/debug/events?type=bogus"); bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown type status = %d, want 400", bresp.StatusCode)
	}

	// The schema view lists the registered taxonomy.
	schresp, schbody := getDebug(t, ts, "/debug/events?schema=1")
	if schresp.StatusCode != http.StatusOK {
		t.Fatalf("schema status = %d", schresp.StatusCode)
	}
	for _, want := range []string{"query_done", "txn_commit", "slow_query", "checkpoint"} {
		if !strings.Contains(schbody, want) {
			t.Errorf("schema missing %q", want)
		}
	}
}

// TestDebugJournalDisabled: without -events the journal endpoints
// answer 503 with a hint, and /debug/storage still works.
func TestDebugJournalDisabled(t *testing.T) {
	s := testServer(t, config{}) // no journal
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, path := range []string{"/debug/events", "/debug/flight", "/debug/anomalies"} {
		resp, body := getDebug(t, ts, path)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s status = %d, want 503", path, resp.StatusCode)
		}
		if !strings.Contains(body, "-events") {
			t.Errorf("%s error does not name the flag: %s", path, body)
		}
	}
	if resp, body := getDebug(t, ts, "/debug/storage"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/storage status = %d, body %s", resp.StatusCode, body)
	}
}

// TestDebugStorage: the storage view carries the epoch, watermarks and
// journal state a correlation session starts from.
func TestDebugStorage(t *testing.T) {
	s := testServerEvents(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	resp, body := getDebug(t, ts, "/debug/storage")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"epoch", "commit_seq", "checkpoints", "num_pages", "journal_capacity"} {
		if _, ok := st[key]; !ok {
			t.Errorf("storage view missing %q: %s", key, body)
		}
	}
	if st["journal_capacity"].(float64) != 4096 {
		t.Errorf("journal_capacity = %v, want 4096", st["journal_capacity"])
	}
}

// TestPprofGatedBehindDebugFlag: pprof mounts only under -debug; the
// default server must 404 the whole /debug/pprof/ subtree (profiling
// endpoints are never ambiently exposed).
func TestPprofGatedBehindDebugFlag(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/cmdline"} {
		if resp, _ := getDebug(t, ts, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d without -debug, want 404", path, resp.StatusCode)
		}
	}

	sd := testServer(t, config{debug: true})
	tsd := httptest.NewServer(sd.handler())
	defer tsd.Close()
	resp, body := getDebug(t, tsd, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d with -debug, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected body:\n%.200s", body)
	}
}

// TestSlowQueryCorrelation: a slow query's journal event, flight
// record and log line all carry the WAL window that joins it to the
// commits and checkpoints it overlapped. The test scripts the overlap
// deterministically: the execute hook performs an ingest and a
// checkpoint mid-query.
func TestSlowQueryCorrelation(t *testing.T) {
	var logBuf syncBuffer
	s := testServerEvents(t, config{
		slowQuery: time.Nanosecond, // every query is "slow"
		logger:    slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	db := s.eng.DB()
	orig := s.execute
	s.execute = func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error) {
		doc, err := xmltree.ParseString("<d><x>mid</x></d>")
		if err != nil {
			t.Error(err)
		}
		if _, err := db.InsertDocument("mid.xml", doc, db.DefaultSyncPolicy()); err != nil {
			t.Error(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
		return orig(ctx, pq, o)
	}

	body, _ := json.Marshal(queryRequest{Query: query1, Strategy: "groupby"})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	qid := resp.Header.Get("X-Query-ID")

	// The slow_query event: aux holds the window's low WAL seq,
	// wal_seq the high, count the checkpoints overlapped.
	_, ebody := getDebug(t, ts, "/debug/events?type=slow_query&qid="+qid)
	sevents := parseEventLines(t, ebody)
	if len(sevents) != 1 {
		t.Fatalf("got %d slow_query events, want 1:\n%s", len(sevents), ebody)
	}
	se := sevents[0]
	walLo, walHi := uint64(se.Aux), se.WALSeq
	if walHi <= walLo {
		t.Errorf("WAL window [%d, %d] does not contain the mid-query commit", walLo, walHi)
	}
	if se.Count < 1 {
		t.Errorf("slow_query checkpoints = %d, want >= 1", se.Count)
	}
	if se.Label != "groupby" || se.DurNS <= 0 {
		t.Errorf("slow_query event = %+v", se)
	}

	// The window joins to the exact commit: a txn_commit event with
	// walLo < seq <= walHi exists and names the mid-query document.
	_, cbody := getDebug(t, ts, "/debug/events?type=txn_commit")
	overlapped := 0
	for _, ev := range parseEventLines(t, cbody) {
		if ev.WALSeq > walLo && ev.WALSeq <= walHi {
			overlapped++
			if ev.Label != "insert:mid.xml" {
				t.Errorf("overlapping commit = %q, want insert:mid.xml", ev.Label)
			}
		}
	}
	if overlapped != 1 {
		t.Errorf("found %d commits in window (%d, %d], want 1", overlapped, walLo, walHi)
	}

	// /debug/flight?qid= serves the same record the log line describes.
	fresp, fbody := getDebug(t, ts, "/debug/flight?qid="+qid)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight?qid= status = %d, body %s", fresp.StatusCode, fbody)
	}
	var fr obs.FlightRecord
	if err := json.Unmarshal([]byte(fbody), &fr); err != nil {
		t.Fatalf("flight record not JSON: %v\n%s", err, fbody)
	}
	if !fr.Slow || fr.QID != qid || fr.Query != query1 || fr.Strategy != "groupby" {
		t.Errorf("flight record = %+v", fr)
	}
	if fr.WALSeqLow != walLo || fr.WALSeqHigh != walHi || fr.Checkpoints != se.Count {
		t.Errorf("flight window [%d, %d] ck %d != event window [%d, %d] ck %d",
			fr.WALSeqLow, fr.WALSeqHigh, fr.Checkpoints, walLo, walHi, se.Count)
	}
	if fr.Trace == nil || fr.Rows <= 0 {
		t.Errorf("flight record missing trace/rows: trace=%v rows=%d", fr.Trace, fr.Rows)
	}

	// The slow-query log line carries the same window.
	var slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparsable log line %q: %v", line, err)
		}
		if rec["msg"] == "slow query" {
			slow = rec
		}
	}
	if slow == nil {
		t.Fatalf("no slow-query log line:\n%s", logBuf.String())
	}
	if uint64(slow["wal_lo"].(float64)) != walLo || uint64(slow["wal_hi"].(float64)) != walHi {
		t.Errorf("log window = [%v, %v], event window = [%d, %d]", slow["wal_lo"], slow["wal_hi"], walLo, walHi)
	}
	if int64(slow["checkpoints"].(float64)) != se.Count {
		t.Errorf("log checkpoints = %v, want %d", slow["checkpoints"], se.Count)
	}

	// An unknown qid is a 404, not an empty record.
	if nresp, _ := getDebug(t, ts, "/debug/flight?qid=nope"); nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown qid status = %d, want 404", nresp.StatusCode)
	}
}

// TestDebugFlightExplain: an explain run's flight record carries the
// EXPLAIN report joined to the same qid.
func TestDebugFlightExplain(t *testing.T) {
	s := testServerEvents(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1, Explain: true})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	qid := resp.Header.Get("X-Query-ID")

	fresp, fbody := getDebug(t, ts, "/debug/flight?qid="+qid)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", fresp.StatusCode, fbody)
	}
	var fr struct {
		QID     string          `json:"qid"`
		Explain *engine.Explain `json:"explain"`
	}
	if err := json.Unmarshal([]byte(fbody), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Explain == nil || !fr.Explain.Executed {
		t.Errorf("flight record missing executed EXPLAIN join: %s", fbody)
	}
}

// TestFlightRecordPerRequest: every served query — plain or explain,
// with or without a slow-query threshold, succeeded or timed out —
// files exactly one flight record, and its trace is the request's own
// span tree, rooted at the query ID. A failed run keeps its error text.
func TestFlightRecordPerRequest(t *testing.T) {
	type tc struct {
		name    string
		slow    time.Duration
		explain bool
		timeout bool
	}
	var cases []tc
	for _, slow := range []time.Duration{0, time.Nanosecond} {
		for _, explain := range []bool{false, true} {
			cases = append(cases, tc{fmt.Sprintf("slowquery=%v/explain=%v", slow, explain), slow, explain, false})
		}
	}
	cases = append(cases, tc{name: "timeout", timeout: true})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testServerEvents(t, config{slowQuery: c.slow})
			req := queryRequest{Query: query1, Explain: c.explain}
			want := http.StatusOK
			if c.timeout {
				// Park until the deadline, then run the real engine on
				// the expired context, so the error comes from Execute.
				orig := s.execute
				s.execute = func(ctx context.Context, pq *engine.PreparedQuery, o engine.ExecOptions) (*engine.Result, error) {
					<-ctx.Done()
					return orig(ctx, pq, o)
				}
				req.TimeoutMS = 20
				want = http.StatusGatewayTimeout
			}
			ts := httptest.NewServer(s.handler())
			defer ts.Close()

			body, _ := json.Marshal(req)
			resp, raw := postQuery(t, ts, string(body))
			if resp.StatusCode != want {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, want, raw)
			}
			qid := resp.Header.Get("X-Query-ID")

			_, all := getDebug(t, ts, "/debug/flight")
			var recs []obs.FlightRecord
			if err := json.Unmarshal([]byte(all), &recs); err != nil {
				t.Fatalf("/debug/flight not JSON: %v\n%s", err, all)
			}
			n := 0
			for _, r := range recs {
				if r.QID == qid {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("%d flight records for %s, want exactly 1: %s", n, qid, all)
			}

			fresp, fbody := getDebug(t, ts, "/debug/flight?qid="+qid)
			if fresp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/flight?qid= status = %d, body %s", fresp.StatusCode, fbody)
			}
			var fr obs.FlightRecord
			if err := json.Unmarshal([]byte(fbody), &fr); err != nil {
				t.Fatalf("flight record not JSON: %v\n%s", err, fbody)
			}
			if fr.Trace == nil || fr.Trace.Name != qid {
				t.Fatalf("flight trace = %+v, want a tree rooted at %q", fr.Trace, qid)
			}
			if c.timeout {
				if !strings.Contains(fr.Error, "deadline exceeded") {
					t.Errorf("errored record lost its error text: %q", fr.Error)
				}
				return
			}
			if len(fr.Trace.Children) == 0 || fr.Error != "" || fr.Slow != (c.slow > 0) {
				t.Errorf("flight record = %+v, want operator spans, no error, slow=%v", fr, c.slow > 0)
			}
			if c.explain && fr.Explain == nil {
				t.Error("explain run's record lacks its EXPLAIN report")
			}
		})
	}
}

// TestDebugEventsConcurrentHammer exercises the full stack under
// -race: concurrent ingest transactions, queries and checkpoints all
// write the journal while readers stream /debug/events. Afterwards
// every emitted event must be present exactly once (the ring is larger
// than the event count) with strictly increasing sequence numbers.
func TestDebugEventsConcurrentHammer(t *testing.T) {
	s := testServerEvents(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	db := s.eng.DB()

	const (
		writers    = 2
		queriers   = 2
		iterations = 10
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: stream /debug/events until the writers finish; the max
	// seq they observe must never decrease across polls.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/debug/events")
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader status = %d", resp.StatusCode)
					return
				}
				var maxSeq uint64
				for _, ev := range parseEventLines(t, string(b)) {
					if ev.Seq > maxSeq {
						maxSeq = ev.Seq
					}
				}
				if maxSeq < last {
					t.Errorf("observed seq went backwards: %d after %d", maxSeq, last)
					return
				}
				last = maxSeq
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < iterations; i++ {
				name := fmt.Sprintf("doc-%d-%d.xml", w, i)
				doc, err := xmltree.ParseString("<d><x>v</x></d>")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.InsertDocument(name, doc, db.DefaultSyncPolicy()); err != nil {
					t.Errorf("insert %s: %v", name, err)
					return
				}
				if err := db.DeleteDocument(name, db.DefaultSyncPolicy()); err != nil {
					t.Errorf("delete %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			body, _ := json.Marshal(queryRequest{Query: query1})
			for i := 0; i < iterations; i++ {
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; i < iterations; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	writerWG.Wait()
	close(stop)
	wg.Wait()

	// No lost writes: the journal's reservation count equals the number
	// of distinct retained events (capacity exceeds the event count, so
	// nothing was overwritten) and sequences are exactly 1..seq.
	j := s.journal()
	total := j.Seq()
	if total == 0 {
		t.Fatal("no events emitted")
	}
	if cap := uint64(j.Capacity()); total > cap {
		t.Fatalf("test produced %d events, over the ring capacity %d — shrink the workload", total, cap)
	}
	events := j.Events(obs.EventFilter{})
	if uint64(len(events)) != total {
		t.Fatalf("retained %d events, reserved %d — writes were lost", len(events), total)
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}
