package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"timber/internal/exec"
	"timber/internal/obs"
	"timber/internal/paperdata"
)

// timber runs one in-process invocation and returns its exit status
// and output.
func timber(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = (&cli{stdout: &out, stderr: &errOut}).run(args)
	return code, out.String(), errOut.String()
}

var (
	witnessesRE   = regexp.MustCompile(`(\d+) witnesses via the (\w+) matcher`)
	resultTreesRE = regexp.MustCompile(`(\d+) result trees in`)
)

// TestCLI drives every subcommand over one generated database, in
// order: later steps read what earlier ones wrote.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "bib.timber")
	xmlPath := filepath.Join(dir, "journals.xml")
	queryPath := filepath.Join(dir, "q1.xq")
	traceFile := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(queryPath, []byte(paperdata.Query1Text), 0o644); err != nil {
		t.Fatal(err)
	}
	const pattern = "$1 [tag=article]\n  pc $2 [tag=author]\n  pc $3 [tag=title]"

	type step struct {
		name  string
		args  []string
		code  int
		check func(t *testing.T, stdout, stderr string)
	}
	contains := func(stream, want string) func(*testing.T, string, string) {
		return func(t *testing.T, stdout, stderr string) {
			got := stdout
			if stream == "stderr" {
				got = stderr
			}
			if !strings.Contains(got, want) {
				t.Errorf("%s lacks %q:\n%s", stream, want, got)
			}
		}
	}
	witnesses := map[string]string{}
	countWitnesses := func(t *testing.T, stdout, _ string) {
		m := witnessesRE.FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("no witness count in:\n%s", stdout)
		}
		witnesses[m[2]] = m[1]
	}

	steps := []step{
		{"gen -db", []string{"gen", "-articles", "300", "-db", db}, 0, contains("stderr", "loaded")},
		{"gen xml", []string{"gen", "-articles", "300"}, 0, func(t *testing.T, stdout, _ string) {
			if err := os.WriteFile(xmlPath, []byte(stdout), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"stats", []string{"stats", "-db", db}, 0, func(t *testing.T, stdout, _ string) {
			for _, re := range []string{`documents \(1\):`, `(?m)^  article +300$`, `pages: +\d+ \(\d+\.\d MiB on disk\)`} {
				if !regexp.MustCompile(re).MatchString(stdout) {
					t.Errorf("stats output lacks %s:\n%s", re, stdout)
				}
			}
		}},
		{"load", []string{"load", "-db", filepath.Join(dir, "loaded.timber"), xmlPath}, 0, contains("stdout", "as document 1")},
		{"stats of loaded", []string{"stats", "-db", filepath.Join(dir, "loaded.timber"), "-tags=false"}, 0, contains("stdout", "journals.xml")},
		{"load without documents", []string{"load", "-db", filepath.Join(dir, "empty.timber")}, 2, contains("stderr", "no input documents")},
		{"match binary", []string{"match", "-db", db, "-matcher", "binary", "-p", pattern}, 0, countWitnesses},
		{"match twig", []string{"match", "-db", db, "-matcher", "twig", "-p", pattern}, 0, countWitnesses},
		{"match without pattern", []string{"match", "-db", db}, 2, nil},
		{"query -trace", []string{"query", "-db", db, "-f", queryPath, "-plans=false", "-q", "-trace"}, 0, contains("stderr", "result trees")},
		{"query without query", []string{"query", "-db", db}, 2, nil},
		{"query bad flag", []string{"query", "-nosuchflag"}, 2, contains("stderr", "nosuchflag")},
		{"query -explain -trace", []string{"query", "-db", db, "-f", queryPath, "-plans=false", "-q", "-explain", "-trace", "-tracefile", traceFile}, 0,
			func(t *testing.T, _, stderr string) {
				// The report and the verified trace come from one run:
				// the trace holds the operator spans EXPLAIN joined.
				for _, want := range []string{"--- EXPLAIN ---", "actual", "exec: "} {
					if !strings.Contains(stderr, want) {
						t.Errorf("stderr lacks %q:\n%s", want, stderr)
					}
				}
				raw, err := os.ReadFile(traceFile)
				if err != nil {
					t.Fatal(err)
				}
				var root obs.SpanData
				if err := json.Unmarshal(raw, &root); err != nil {
					t.Fatal(err)
				}
				if len(root.Children) == 0 || !strings.HasPrefix(root.Children[0].Name, "exec: ") {
					t.Errorf("trace file has no operator spans: %s", raw)
				}
			}},
		{"help", []string{"stats", "-h"}, 0, contains("stderr", "-tags")},
		{"unknown subcommand", []string{"frobnicate"}, 2, contains("stderr", "gen, load, match, query, stats")},
		{"no subcommand", nil, 2, contains("stderr", "usage: timber")},
	}
	trees := map[string]string{}
	for _, name := range exec.StrategyNames() {
		steps = append(steps, step{"query -plan " + name, []string{"query", "-db", db, "-f", queryPath, "-plans=false", "-plan", name}, 0,
			func(t *testing.T, stdout, stderr string) {
				m := resultTreesRE.FindStringSubmatch(stderr)
				if m == nil || !strings.Contains(stdout, "<authorpubs>") {
					t.Fatalf("no result trees:\nstdout %s\nstderr %s", stdout, stderr)
				}
				trees[name] = m[1]
			}})
	}

	for _, s := range steps {
		code, stdout, stderr := timber(s.args...)
		if code != s.code {
			t.Fatalf("%s: exit %d, want %d\nstderr: %s", s.name, code, s.code, stderr)
		}
		if s.check != nil {
			t.Run(s.name, func(t *testing.T) { s.check(t, stdout, stderr) })
		}
	}

	if witnesses["binary"] == "" || witnesses["binary"] != witnesses["twig"] {
		t.Errorf("witness counts by matcher = %v, want binary = twig", witnesses)
	}
	for name, n := range trees {
		if n != trees["groupby"] {
			t.Errorf("-plan %s: %s result trees, groupby %s", name, n, trees["groupby"])
		}
	}
}

// genFileSHA256 is the SHA-256 of the file `timber gen -articles 300
// -db` writes. The on-disk format — page layout, record codec, heap
// chaining and index packing — must not change as a side effect: any
// change to the bytes a load writes moves this digest.
const genFileSHA256 = "b11137db2972e95ad9707267fa222f165f3c995237d5b7257bab4c54d04d7bcb"

func TestGenFileFormatPinned(t *testing.T) {
	db := filepath.Join(t.TempDir(), "bib.timber")
	if code, _, stderr := timber("gen", "-articles", "300", "-db", db); code != 0 {
		t.Fatalf("gen -db: exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != genFileSHA256 {
		t.Errorf("gen -articles 300 -db wrote %d bytes with SHA-256 %s, want %s", len(b), got, genFileSHA256)
	}
}

// TestQueryLeavesDatabaseUnchanged: a query — auto, and with -explain —
// is a read. The database file and its log are byte-identical after
// the command closes the database.
func TestQueryLeavesDatabaseUnchanged(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "bib.timber")
	queryPath := filepath.Join(dir, "q1.xq")
	if err := os.WriteFile(queryPath, []byte(paperdata.Query1Text), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := timber("gen", "-articles", "300", "-db", db); code != 0 {
		t.Fatalf("gen -db: exit %d: %s", code, stderr)
	}
	files := []string{db, db + ".wal"}
	read := func() [][]byte {
		var out [][]byte
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	before := read()
	for _, args := range [][]string{
		{"query", "-db", db, "-f", queryPath, "-plans=false", "-q"},
		{"query", "-db", db, "-f", queryPath, "-plans=false", "-q", "-explain"},
	} {
		if code, _, stderr := timber(args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr)
		}
		for i, b := range read() {
			if !bytes.Equal(b, before[i]) {
				t.Errorf("%v changed %s (%d -> %d bytes)", args, files[i], len(before[i]), len(b))
			}
		}
	}
}
