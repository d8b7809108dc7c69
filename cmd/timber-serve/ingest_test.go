package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func doIngest(t *testing.T, ts *httptest.Server, method, params, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+"/ingest"+params, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestIngestLifecycle: a document POSTed through /ingest is immediately
// visible to /stats and queries, a duplicate name is a 409, DELETE
// removes it, and deleting a missing name is a 404.
func TestIngestLifecycle(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	const doc = `<bib><article><author>Ingested Author</author><title>Ingested Title</title></article></bib>`
	resp, raw := doIngest(t, ts, http.MethodPost, "?name=extra.xml&sync=always", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d, body %s", resp.StatusCode, raw)
	}
	var ir ingestResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatalf("bad receipt %s: %v", raw, err)
	}
	if ir.Name != "extra.xml" || ir.Nodes == 0 || ir.Epoch == 0 || ir.Sync != "always" {
		t.Errorf("receipt = %+v", ir)
	}

	// The catalog reflects the insert without a restart.
	docs := s.eng.DB().Documents()
	if len(docs) != 2 {
		t.Fatalf("documents after insert = %d, want 2", len(docs))
	}
	// ...and the query path sees the new author.
	body, _ := json.Marshal(queryRequest{Query: query1, Strategy: "groupby"})
	qresp, qraw := postQuery(t, ts, string(body))
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d, body %s", qresp.StatusCode, qraw)
	}
	if qr := decodeQueryResponse(t, qraw); !strings.Contains(qr.Trees, "Ingested Author") {
		t.Errorf("query after ingest does not see the new document:\n%s", qr.Trees)
	}

	// Duplicate name: 409, catalog unchanged.
	resp, raw = doIngest(t, ts, http.MethodPost, "?name=extra.xml", doc)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate status = %d, body %s", resp.StatusCode, raw)
	}
	if got := len(s.eng.DB().Documents()); got != 2 {
		t.Errorf("documents after duplicate = %d, want 2", got)
	}

	// Delete it; the catalog and query results revert.
	resp, raw = doIngest(t, ts, http.MethodDelete, "?name=extra.xml", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d, body %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &ir); err != nil || !ir.Deleted {
		t.Errorf("delete receipt %s (err %v)", raw, err)
	}
	if got := len(s.eng.DB().Documents()); got != 1 {
		t.Errorf("documents after delete = %d, want 1", got)
	}
	qresp, qraw = postQuery(t, ts, string(body))
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", qresp.StatusCode)
	}
	if qr := decodeQueryResponse(t, qraw); strings.Contains(qr.Trees, "Ingested Author") {
		t.Error("query still sees the deleted document")
	}

	// Deleting a name that was never inserted: 404.
	resp, raw = doIngest(t, ts, http.MethodDelete, "?name=ghost.xml", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing-delete status = %d, body %s", resp.StatusCode, raw)
	}
}

// TestIngestBadRequest: parameter and body errors are 4xx with JSON
// error bodies, and unsupported methods get 405 + Allow.
func TestIngestBadRequest(t *testing.T) {
	s := testServer(t, config{})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for name, tc := range map[string]struct {
		method, params, body string
		status               int
	}{
		"missing name": {http.MethodPost, "", "<a/>", http.StatusBadRequest},
		"bad sync":     {http.MethodPost, "?name=x.xml&sync=turbo", "<a/>", http.StatusBadRequest},
		"bad xml":      {http.MethodPost, "?name=x.xml", "<a><unclosed>", http.StatusBadRequest},
		"get method":   {http.MethodGet, "?name=x.xml", "", http.StatusMethodNotAllowed},
	} {
		resp, raw := doIngest(t, ts, tc.method, tc.params, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", name, resp.StatusCode, tc.status, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %s", name, raw)
		}
	}
	if got := resp405Allow(t, ts); got != "POST, DELETE" {
		t.Errorf("Allow = %q, want \"POST, DELETE\"", got)
	}
	if got := len(s.eng.DB().Documents()); got != 1 {
		t.Errorf("bad requests changed the catalog: %d documents", got)
	}
}

func resp405Allow(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/ingest?name=x.xml")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.Header.Get("Allow")
}

// TestIngestConcurrentWithQueries: writers stream documents in while
// clients query; every query runs on one pinned snapshot, so each
// response is byte-identical to the pre-ingest reference (the inserted
// documents contain no tags the query pattern matches). Run under
// -race by make race.
func TestIngestConcurrentWithQueries(t *testing.T) {
	s := testServer(t, config{maxInFlight: 64})
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body, _ := json.Marshal(queryRequest{Query: query1, Strategy: "groupby"})
	resp, raw := postQuery(t, ts, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status = %d, body %s", resp.StatusCode, raw)
	}
	want := decodeQueryResponse(t, raw).Trees

	const writers, docsPerWriter, readers, queries = 2, 8, 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				name := fmt.Sprintf("?name=w%d-%d.xml&sync=group", w, i)
				doc := fmt.Sprintf(`<sidecar><payload n="%d">writer %d</payload></sidecar>`, i, w)
				resp, raw := doIngest(t, ts, http.MethodPost, name, doc)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d doc %d: status %d body %s", w, i, resp.StatusCode, raw)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				body, _ := json.Marshal(queryRequest{Query: query1, Strategy: "groupby", Parallelism: 1 + r%4})
				resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
				if err != nil {
					errs <- err
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d iter %d: status %d", r, i, resp.StatusCode)
					return
				}
				if qr.Trees != want {
					errs <- fmt.Errorf("reader %d iter %d: result differs from quiesced reference under concurrent ingest", r, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := len(s.eng.DB().Documents()); got != 1+writers*docsPerWriter {
		t.Errorf("documents after concurrent ingest = %d, want %d", got, 1+writers*docsPerWriter)
	}
	// The WAL counters moved: every commit appended and fsynced.
	ws := s.eng.DB().WALStats()
	if ws.Commits < uint64(writers*docsPerWriter) {
		t.Errorf("wal commits = %d, want >= %d", ws.Commits, writers*docsPerWriter)
	}
}
