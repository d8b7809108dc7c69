package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"timber/internal/dblpgen"
	"timber/internal/obs"
	"timber/internal/storage"
)

// sinkDB is a database whose titles spread over many small heap pages,
// so the order the sink reads them in shows in its fetch count.
func sinkDB(t *testing.T) *storage.DB {
	t.Helper()
	db, err := storage.CreateTemp(storage.Options{PageSize: 512, PoolPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	root, _ := dblpgen.Generate(dblpgen.Config{Articles: 200, Seed: 5})
	if _, err := db.LoadDocument("bib.xml", root); err != nil {
		t.Fatal(err)
	}
	return db
}

// distinctPages counts the heap pages a posting list lands on.
func distinctPages(ps []storage.Posting) int {
	pages := map[uint32]bool{}
	for _, p := range ps {
		pages[uint32(p.RID.Page)] = true
	}
	return len(pages)
}

// findSpan returns the first span named name in d's tree.
func findSpan(d *obs.SpanData, name string) *obs.SpanData {
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestSinkFetchesEachTitlePageOnce: the groups scatter an author's
// titles across the heap, yet the sink pins every heap page holding an
// output title exactly once.
func TestSinkFetchesEachTitlePageOnce(t *testing.T) {
	db := sinkDB(t)
	_, _, spec := plansFor(t, query1Src)
	sn := pin(t, db)
	titles, err := storage.Drain(sn.TagStream("title"))
	if err != nil {
		t.Fatal(err)
	}
	tr := db.NewTracer("sink")
	res, err := runAs(db, StrategyGroupBy, spec, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	mat := findSpan(tr.Finish(), "materialize: groups")
	if mat == nil {
		t.Fatal("no materialize span")
	}
	// Every generated article has an author, so every title is output.
	want := distinctPages(titles)
	if want < 20 {
		t.Fatalf("fixture titles span only %d pages", want)
	}
	if got := mat.Delta.Fetches; got != uint64(want) {
		t.Errorf("sink fetched %d pages for titles on %d distinct pages", got, want)
	}
	if res.Stats.ValueLookups <= len(titles) {
		t.Errorf("%d value look-ups for %d titles: the fixture should repeat titles across authors", res.Stats.ValueLookups, len(titles))
	}
}

// rowsIter replays a fixed row stream; onEnd runs once, when the
// stream is first found exhausted.
type rowsIter struct {
	rows  []Row
	at    int
	onEnd func()
}

func (it *rowsIter) Open() error  { return nil }
func (it *rowsIter) Close() error { return nil }
func (it *rowsIter) Next(b *Batch) error {
	b.Reset()
	for !b.full() && it.at < len(it.rows) {
		b.Rows = append(b.Rows, it.rows[it.at])
		it.at++
	}
	if len(b.Rows) == 0 && it.onEnd != nil {
		it.onEnd()
		it.onEnd = nil
	}
	return nil
}

// titleStream is n title rows in groups of k, cycling through titles
// with a stride so that consecutive rows land on different pages.
func titleStream(titles []storage.Posting, n, k int) (rows []Row, names []string) {
	for i := 0; i < n; i++ {
		if i%k == 0 {
			rows = append(rows, Row{Kind: rowGroup, Key: uint32(len(names))})
			names = append(names, fmt.Sprintf("group %d", len(names)))
		}
		rows = append(rows, Row{Kind: rowBinding, HasAux: true, Aux: titles[(i*37)%len(titles)]})
	}
	return rows, names
}

// TestSinkFlushesAtStageLimit drives the sink past its stage limit: it
// flushes once when the stage fills and once at end of stream, each
// flush pins each of its pages once, and every placeholder receives its
// own title in stream order.
func TestSinkFlushesAtStageLimit(t *testing.T) {
	db := sinkDB(t)
	_, _, spec := plansFor(t, query1Src)
	sn := pin(t, db)
	titles, err := storage.Drain(sn.TagStream("title"))
	if err != nil {
		t.Fatal(err)
	}
	n := stageLimit + 500
	rows, names := titleStream(titles, n, 7)
	var staged []storage.Posting
	for _, r := range rows {
		if r.HasAux {
			staged = append(staged, r.Aux)
		}
	}
	want := make(map[storage.Posting]string)
	for _, p := range titles {
		c, err := sn.Content(p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = c
	}

	before := db.Stats().Fetches
	s := newSink(sn, spec, context.Background(), 0, names)
	// Batch size 1 fills the stage to exactly stageLimit titles.
	if err := s.drain(&rowsIter{rows: rows}, 1); err != nil {
		t.Fatal(err)
	}
	fetches := db.Stats().Fetches - before
	if wantF := distinctPages(staged[:stageLimit]) + distinctPages(staged[stageLimit:]); fetches != uint64(wantF) {
		t.Errorf("two flushes fetched %d pages, want %d", fetches, wantF)
	}
	if s.looks != n {
		t.Errorf("%d look-ups for %d staged titles", s.looks, n)
	}
	i := 0
	for _, tr := range s.trees {
		for _, c := range tr.Children[1:] {
			if c.Content != want[staged[i]] {
				t.Fatalf("title %d = %q, want %q", i, c.Content, want[staged[i]])
			}
			i++
		}
	}
	if i != n {
		t.Errorf("trees hold %d titles, want %d", i, n)
	}
	if err := db.DropCache(); err != nil {
		t.Errorf("sink left pages pinned: %v", err)
	}
}

// TestSinkCancelDuringFlush: a context cancelled when the stream ends
// stops the final flush with ctx.Err(), holding no page.
func TestSinkCancelDuringFlush(t *testing.T) {
	db := sinkDB(t)
	_, _, spec := plansFor(t, query1Src)
	sn := pin(t, db)
	titles, err := storage.Drain(sn.TagStream("title"))
	if err != nil {
		t.Fatal(err)
	}
	rows, names := titleStream(titles, 300, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newSink(sn, spec, ctx, 0, names)
	err = s.drain(&rowsIter{rows: rows, onEnd: cancel}, 64)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drain = %v, want context.Canceled", err)
	}
	if s.looks != 0 {
		t.Errorf("cancelled flush still looked up %d titles", s.looks)
	}
	if err := db.DropCache(); err != nil {
		t.Errorf("cancelled flush left pages pinned: %v", err)
	}
}
