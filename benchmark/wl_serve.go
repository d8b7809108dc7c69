package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"timber/internal/engine"
	texec "timber/internal/exec"
	"timber/internal/storage"
)

// serveWorkload drives a real timber-serve subprocess over HTTP with
// two closed-loop clients on two connections: the timed client
// alternates the E1 and E2 texts; the background client inserts small
// documents and deletes the one four inserts back, so the database
// stays the same size while every commit goes through the WAL, the
// copy-on-write index paths and page reclamation.
type serveWorkload struct {
	cfg config

	corpus *corpus
	dbPath string
	cmd    *exec.Cmd
	exited chan struct{}
	logf   *os.File
	base   string
	client *http.Client

	refDB *storage.DB
	refs  [2]string
	fact  workloadFacts

	// overheadMS collects client latency minus the server's own
	// elapsed_ms per traced operation.
	overheadMS []float64

	bg *ingestClient
}

var serveTexts = [2]string{queryTitles, queryCount}

// ingestLag is how many inserts a document outlives: the client
// deletes the one four inserts back.
const ingestLag = 4

func (w *serveWorkload) setup() error {
	w.corpus = dblpCorpus(w.cfg.scaled(serveArticles), w.cfg.seed)
	db, path, err := createDB(w.cfg, wlServe, warmPoolPages)
	if err != nil {
		return err
	}
	w.dbPath = path
	if err := loadCorpus(db, w.corpus); err != nil {
		return errors.Join(err, db.Close())
	}
	w.fact = dbFacts(db, w.corpus, warmPoolPages)
	w.fact.Clients = 2
	if err := db.Close(); err != nil {
		return err
	}
	return w.startServer()
}

// startServer runs timber-serve with its defaults (journal on, -sync
// group, 32 MiB pool); only where it listens and where it may write
// are set.
func (w *serveWorkload) startServer() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return err
	}
	if w.logf, err = os.Create(filepath.Join(w.cfg.workDir, "timber-serve.log")); err != nil {
		return err
	}
	w.cmd = exec.Command(w.cfg.serveBin, "-db", w.dbPath, "-addr", addr, "-crashdump", w.cfg.workDir)
	w.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.cfg.procs))
	w.cmd.Stdout, w.cmd.Stderr = w.logf, w.logf
	if err := w.cmd.Start(); err != nil {
		return err
	}
	w.base = "http://" + addr
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2},
	}
	exited := make(chan struct{})
	go func() {
		// Reaped here so a server that dies at start-up ends the wait
		// below; stopServer waits on the same channel.
		_ = w.cmd.Wait()
		close(exited)
	}()
	w.exited = exited
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("timber-serve exited during start-up; see %s", w.logf.Name())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timber-serve did not answer /stats within 20 s: %v", err)
		}
	}
}

func (w *serveWorkload) stopServer() error {
	if w.cmd == nil {
		return nil
	}
	_ = w.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-w.exited:
	case <-time.After(20 * time.Second):
		_ = w.cmd.Process.Kill()
		<-w.exited
	}
	w.client.CloseIdleConnections()
	w.cmd = nil
	return w.logf.Close()
}

// reference evaluates both texts with the logical evaluator on an
// in-process copy of the corpus; the copy stays open for the layer
// microbenchmarks, which cannot reach inside the server.
func (w *serveWorkload) reference() error {
	db, err := storage.CreateTemp(storage.Options{PoolPages: warmPoolPages})
	if err != nil {
		return err
	}
	w.refDB = db
	if err := loadCorpus(db, w.corpus); err != nil {
		return err
	}
	eng := engine.New(db, engine.Options{})
	for i, text := range serveTexts {
		res, err := eng.Query(context.Background(), text, engine.ExecOptions{Strategy: texec.StrategyLogical})
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		w.refs[i] = treesDigest(serializeTrees(res.Trees))
	}
	return nil
}

// queryReply is the part of timber-serve's /query response the harness
// reads.
type queryReply struct {
	Trees     string  `json:"trees"`
	Strategy  string  `json:"strategy"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// query posts one text and returns the client-side latency (request
// sent to body decoded), the reply and the HTTP status.
func (w *serveWorkload) query(text string) (time.Duration, queryReply, int, error) {
	var reply queryReply
	body, err := json.Marshal(map[string]string{"query": text})
	if err != nil {
		return 0, reply, 0, err
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), reply, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return time.Since(t0), reply, resp.StatusCode, nil
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	return time.Since(t0), reply, resp.StatusCode, err
}

// quiescedDigest digests a reply after dropping the groups keyed by
// ingest-only authors, which is what the reference — computed without
// any ingest — can be compared with.
func quiescedDigest(trees string) string {
	parts := splitTrees(trees)
	kept := parts[:0]
	for _, p := range parts {
		if !isIngestGroup(p) {
			kept = append(kept, p)
		}
	}
	return treesDigest(kept)
}

// verifiedQuery posts one of the two texts and checks the reply.
func (w *serveWorkload) verifiedQuery(which int) (time.Duration, queryReply, bool) {
	d, reply, status, err := w.query(serveTexts[which])
	switch {
	case err != nil:
		w.cfg.failures.add("POST /query: %v", err)
	case status != http.StatusOK:
		w.cfg.failures.add("POST /query: status %d", status)
	case quiescedDigest(reply.Trees) != w.refs[which]:
		w.cfg.failures.add("POST /query: text %d: result differs from the logical reference", which)
	default:
		return d, reply, true
	}
	return d, reply, false
}

// op is one alternation of the read client: the E1 text, then the E2
// text. Timing the pair keeps the latency distribution unimodal; timed
// one by one, the two texts' different costs would put the median in
// the gap between two modes.
func (w *serveWorkload) op(int) (time.Duration, bool) {
	d1, _, ok1 := w.verifiedQuery(0)
	d2, _, ok2 := w.verifiedQuery(1)
	return d1 + d2, ok1 && ok2
}

// tracedOp splits each request's client latency into the server's own
// elapsed_ms and the rest: HTTP, JSON and scheduling, which stay with
// the root.
func (w *serveWorkload) tracedOp(i int, t *trace) (time.Duration, bool) {
	start := time.Now()
	root := stage{Name: "POST /query E1, E2", Layer: layerRoot}
	ok := true
	for which := range serveTexts {
		d, reply, good := w.verifiedQuery(which)
		ok = ok && good
		server := time.Duration(reply.ElapsedMS * float64(time.Millisecond))
		w.overheadMS = append(w.overheadMS, float64(d-server)/float64(time.Millisecond))
		root.Dur += d
		root.Children = append(root.Children, stage{Name: "handler elapsed_ms (" + reply.Strategy + ")", Layer: layerServerOp, Dur: server})
	}
	if ok {
		t.addOp(i, start, root)
	}
	return root.Dur, ok
}

// counters reads the server's /metrics exposition.
func (w *serveWorkload) counters() (counters, error) {
	var c counters
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	want := map[string]func(float64){
		"pool_fetches":             func(v float64) { c.pool.Fetches = uint64(v) },
		"pool_hits":                func(v float64) { c.pool.Hits = uint64(v) },
		"pool_physical_reads":      func(v float64) { c.pool.PhysicalReads = uint64(v) },
		"pool_evictions":           func(v float64) { c.pool.Evictions = uint64(v) },
		"wal_appended_bytes":       func(v float64) { c.walBytes = uint64(v) },
		"wal_commits":              func(v float64) { c.walCommits = uint64(v) },
		"wal_fsyncs":               func(v float64) { c.walFsyncs = uint64(v) },
		"engine_plan_cache_hits":   func(v float64) { c.cacheHits = int64(v) },
		"engine_plan_cache_misses": func(v float64) { c.cacheMisses = int64(v) },
		"serve_requests":           func(v float64) { c.requests = int64(v) },
		"serve_rejected":           func(v float64) { c.rejected = int64(v) },
	}
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, found := strings.Cut(sc.Text(), " ")
		set, wanted := want[name]
		if !found || !wanted {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("/metrics: %s: %w", name, err)
		}
		set(v)
		seen++
	}
	if err := sc.Err(); err != nil {
		return c, err
	}
	if seen != len(want) {
		return c, fmt.Errorf("/metrics: found %d of the %d counters the harness reads", seen, len(want))
	}
	return c, nil
}

// tracedMetrics reports the HTTP layer's overhead and, on the
// in-process copy, the match layer on the branch the queries join.
func (w *serveWorkload) tracedMetrics(out map[string]float64) error {
	out["http_overhead_ms"] = median(w.overheadMS)
	return matchLayer(w.refDB, branchOnly, nil, out)
}

func (w *serveWorkload) layerDB() *storage.DB { return w.refDB }
func (w *serveWorkload) facts() workloadFacts { return w.fact }

func (w *serveWorkload) close() error {
	err := w.stopServer()
	if w.refDB != nil {
		err = errors.Join(err, w.refDB.Close())
		w.refDB = nil
	}
	return err
}

// ingestClient is the background writer. Its state is owned by its
// goroutine until done is closed.
type ingestClient struct {
	w    *serveWorkload
	quit chan struct{}
	done chan struct{}

	insertMS  []float64
	attempted int
	failed    int
	live      map[int]bool
	started   time.Time
	ran       time.Duration
}

func (w *serveWorkload) start() error {
	w.bg = &ingestClient{w: w, quit: make(chan struct{}), done: make(chan struct{}), live: map[int]bool{}, started: time.Now()}
	go w.bg.run()
	return nil
}

func (c *ingestClient) run() {
	defer close(c.done)
	for k := 0; ; k++ {
		select {
		case <-c.quit:
			c.ran = time.Since(c.started)
			return
		default:
		}
		c.attempted++
		t0 := time.Now()
		status, err := c.w.ingest(http.MethodPost, ingestName(k), strings.NewReader(ingestXML(k)))
		if err != nil || status != http.StatusOK {
			c.failed++
			c.w.cfg.failures.add("POST /ingest %s: status %d, err %v", ingestName(k), status, err)
		} else {
			c.insertMS = append(c.insertMS, float64(time.Since(t0))/float64(time.Millisecond))
			c.live[k] = true
		}
		if old := k - ingestLag; old >= 0 && c.live[old] {
			c.attempted++
			status, err := c.w.ingest(http.MethodDelete, ingestName(old), nil)
			if err != nil || status != http.StatusOK {
				c.failed++
				c.w.cfg.failures.add("DELETE /ingest %s: status %d, err %v", ingestName(old), status, err)
			} else {
				delete(c.live, old)
			}
		}
	}
}

func (w *serveWorkload) ingest(method, name string, body io.Reader) (int, error) {
	req, err := http.NewRequest(method, w.base+"/ingest?name="+url.QueryEscape(name), body)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// stop ends the background client, then checks durability as a reader
// sees it: every acknowledged insert that was not deleted must be in
// the next E1 answer with all its titles, and nothing else from the
// ingest may be.
func (w *serveWorkload) stop() (int, int, map[string]float64) {
	c := w.bg
	close(c.quit)
	<-c.done
	attempted, failed := c.attempted, c.failed

	attempted++
	_, reply, status, err := w.query(queryTitles)
	if err != nil || status != http.StatusOK {
		failed++
		w.cfg.failures.add("durability check: POST /query: status %d, err %v", status, err)
	} else {
		found := map[string]int{}
		for _, p := range splitTrees(reply.Trees) {
			if isIngestGroup(p) {
				found[p]++
			}
		}
		missing := 0
		for k := range c.live {
			hit := false
			for p := range found {
				if strings.Contains(p, ">"+ingestAuthor(k)+"<") && strings.Count(p, "<title>") == ingestArticles {
					hit = true
					delete(found, p)
					break
				}
			}
			if !hit {
				missing++
			}
		}
		// What is left in found belongs to no live document.
		failed += missing + len(found)
		if missing+len(found) > 0 {
			w.cfg.failures.add("durability check: %d acknowledged documents missing from the answer, %d groups of deleted documents still in it", missing, len(found))
		}
	}

	s := summarize(c.insertMS)
	extra := map[string]float64{"ingest_ms_p50": s.P50, "ingest_ms_p95": s.P95}
	if c.ran > 0 {
		extra["ingests_per_s"] = float64(s.N) / c.ran.Seconds()
	}
	return attempted, failed, extra
}
