package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakeCounters drives a tracer with a hand-cranked counter source.
type fakeCounters struct{ c Counters }

func (f *fakeCounters) snap() Counters { return f.c }

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("anything")
	sp.Add("k", 1)
	child := sp.Child("nested")
	child.End()
	sp.End()
	if got := tr.Finish(); got != nil {
		t.Fatalf("Finish on nil tracer = %v, want nil", got)
	}
	if tr.Root() != nil {
		t.Fatal("Root on nil tracer should be nil")
	}
}

func TestSpanDeltasTelescope(t *testing.T) {
	src := &fakeCounters{}
	tr := New("query", src.snap)

	a := tr.Start("phase a")
	src.c.Fetches += 10
	src.c.Hits += 7
	a.Add("postings", 42)
	a.End()

	b := tr.Start("phase b")
	b1 := b.Child("b sub 1")
	src.c.Fetches += 5
	src.c.PhysicalReads += 2
	b1.End()
	src.c.Fetches += 3 // b's own work, outside b1
	b.End()

	src.c.Fetches += 1 // untracked root work (between phases)
	data := tr.Finish()

	if data == nil || len(data.Children) != 2 {
		t.Fatalf("unexpected tree: %+v", data)
	}
	global := src.c
	if err := data.Verify(global); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := data.Children[0].Delta.Fetches; got != 10 {
		t.Errorf("phase a fetches = %d, want 10", got)
	}
	if got := data.Children[1].Delta.Fetches; got != 8 {
		t.Errorf("phase b fetches = %d, want 8", got)
	}
	if got := data.Children[1].Self().Fetches; got != 3 {
		t.Errorf("phase b self fetches = %d, want 3", got)
	}
	if got := data.Self().Fetches; got != 1 {
		t.Errorf("root self fetches = %d, want 1", got)
	}
	if sum := data.SumSelf(); sum != global {
		t.Errorf("SumSelf = %v, want %v", sum, global)
	}
	if data.Children[0].Ops["postings"] != 42 {
		t.Errorf("ops not recorded: %v", data.Children[0].Ops)
	}
	if n := data.Spans(); n != 4 {
		t.Errorf("Spans = %d, want 4", n)
	}
}

func TestVerifyCatchesMismatch(t *testing.T) {
	src := &fakeCounters{}
	tr := New("query", src.snap)
	sp := tr.Start("only")
	src.c.Fetches = 4
	sp.End()
	data := tr.Finish()

	if err := data.Verify(src.c); err != nil {
		t.Fatalf("exact run should verify: %v", err)
	}
	if err := data.Verify(Counters{Fetches: 5}); err == nil {
		t.Fatal("Verify should reject a global mismatch")
	}
	// A corrupted child delta must be caught by the nesting check.
	data.Children[0].Delta.Fetches = 99
	if err := data.Verify(Counters{Fetches: 4}); err == nil {
		t.Fatal("Verify should reject children exceeding the parent")
	}
}

func TestEndIsIdempotentAndClosesChildren(t *testing.T) {
	src := &fakeCounters{}
	tr := New("query", src.snap)
	sp := tr.Start("outer")
	sp.Child("left open") // never explicitly ended
	src.c.Fetches = 2
	data := tr.Finish() // ends outer and its open child
	if err := data.Verify(src.c); err != nil {
		t.Fatalf("Verify after implicit closes: %v", err)
	}
	sp.End() // idempotent after Finish
	if len(data.Children[0].Children) != 1 {
		t.Fatalf("open child missing from tree: %+v", data)
	}
	// Finish is idempotent too: a second call (the caller reading the
	// tree the engine already finished) returns the same fixed tree.
	src.c.Fetches = 9
	if again := tr.Finish(); again != data || again.Delta.Fetches != 2 {
		t.Fatalf("second Finish = %p (fetches %d), want %p (fetches 2)", again, again.Delta.Fetches, data)
	}
}

func TestRenderers(t *testing.T) {
	src := &fakeCounters{}
	tr := New("query", src.snap)
	sp := tr.Start("scan")
	src.c.Fetches = 3
	sp.Add("postings", 9)
	sp.End()
	data := tr.Finish()

	text := data.Text()
	for _, want := range []string{"query", "└─ scan", "fetches=3", "postings=9"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	var buf bytes.Buffer
	if err := data.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SpanData
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if back.Name != "query" || len(back.Children) != 1 || back.Children[0].Delta.Fetches != 3 {
		t.Errorf("JSON round trip mangled the tree: %+v", back)
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Fetches: 5, Hits: 3, NodeVisits: 2}
	b := Counters{Fetches: 2, Hits: 1}
	if got := a.Sub(b); got != (Counters{Fetches: 3, Hits: 2, NodeVisits: 2}) {
		t.Errorf("Sub = %v", got)
	}
	if got := b.Plus(b); got != (Counters{Fetches: 4, Hits: 2}) {
		t.Errorf("Plus = %v", got)
	}
	if !b.fitsIn(a) || a.fitsIn(b) {
		t.Error("fitsIn misordered")
	}
	if a.IsZero() || !(Counters{}).IsZero() {
		t.Error("IsZero wrong")
	}
}
