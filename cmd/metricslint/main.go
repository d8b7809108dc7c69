// Command metricslint is the end-to-end exposition gate behind `make
// metrics-check`: it starts a real timber-serve process, waits for
// /metrics to come up, runs a query so the latency histograms have
// samples, scrapes the exposition, and validates it with the built-in
// linter (internal/obs.LintExposition) — no external Prometheus
// tooling required. It exits nonzero when the exposition is malformed
// or thinner than the coverage floor (at least one counter family, one
// gauge, and one labeled histogram).
//
// Usage:
//
//	metricslint -serve ./timber-serve -db bib.timber
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"timber/internal/obs"
	"timber/internal/paperdata"
)

func main() {
	serveBin := flag.String("serve", "", "path to the timber-serve binary to launch")
	dbPath := flag.String("db", "timber.db", "database file to serve")
	timeout := flag.Duration("timeout", 30*time.Second, "overall deadline for startup + scrape")
	flag.Parse()
	if *serveBin == "" {
		fmt.Fprintln(os.Stderr, "metricslint: -serve is required")
		os.Exit(2)
	}
	if err := run(*serveBin, *dbPath, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "metricslint:", err)
		os.Exit(1)
	}
}

// freeAddr reserves an ephemeral loopback port and releases it for the
// child to bind. The tiny window between Close and the child's Listen
// is tolerable for a CI gate.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

func run(serveBin, dbPath string, timeout time.Duration) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	// -slowquery 1ns exercises the tracing path on every request, so
	// the scrape also covers exec_operator_seconds.
	cmd := exec.Command(serveBin, "-db", dbPath, "-addr", addr, "-slowquery", "1ns")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", serveBin, err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _, _ = cmd.Process.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
		}
	}()

	base := "http://" + addr
	deadline := time.Now().Add(timeout)
	if err := waitReady(base+"/metrics", deadline); err != nil {
		return err
	}

	// One real query populates the engine and exec histogram families.
	qresp, err := http.Post(base+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, paperdata.Query1Text)))
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	qbody, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		return fmt.Errorf("query: status %d: %s", qresp.StatusCode, qbody)
	}
	if qresp.Header.Get("X-Query-ID") == "" {
		return fmt.Errorf("query response missing X-Query-ID header")
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		return fmt.Errorf("scrape: Content-Type = %q, want %q", ct, obs.ExpositionContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}

	sum, errs := obs.LintExposition(data)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "metricslint:", e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("exposition has %d violations", len(errs))
	}
	if sum.Counters < 1 || sum.Gauges < 1 || sum.LabeledHistograms < 1 {
		return fmt.Errorf("exposition coverage below floor (need ≥1 counter, ≥1 gauge, ≥1 labeled histogram): %v", sum)
	}
	fmt.Printf("metricslint: OK — %v\n", sum)
	return nil
}

// waitReady polls url until it answers 200 or the deadline passes.
func waitReady(url string, deadline time.Time) error {
	for {
		resp, err := http.Get(url)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("service never became ready: %w", err)
			}
			return fmt.Errorf("service never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
