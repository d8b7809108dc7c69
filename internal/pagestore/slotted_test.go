package pagestore

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func slottedPage(t *testing.T, pageSize int) (*Store, *Page, SlottedPage) {
	t.Helper()
	st := tempStore(t, Options{PageSize: pageSize, PoolPages: 8})
	p, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Unpin(p, true) })
	return st, p, InitSlotted(p)
}

func TestSlottedInsertRead(t *testing.T) {
	_, _, sp := slottedPage(t, 256)
	recs := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma rays")}
	var slots []Slot
	for _, r := range recs {
		s, ok := sp.Insert(r)
		if !ok {
			t.Fatalf("insert %q failed", r)
		}
		slots = append(slots, s)
	}
	if sp.NumSlots() != 3 {
		t.Errorf("NumSlots = %d", sp.NumSlots())
	}
	for i, s := range slots {
		got, err := sp.Read(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("slot %d = %q, want %q", s, got, recs[i])
		}
	}
}

func TestSlottedFull(t *testing.T) {
	_, _, sp := slottedPage(t, 128)
	rec := bytes.Repeat([]byte("x"), 20)
	inserted := 0
	for {
		if _, ok := sp.Insert(rec); !ok {
			break
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("nothing fit in the page")
	}
	// (20+4) bytes per record, 118 usable: 4 records fit.
	if inserted != 4 {
		t.Errorf("inserted %d records, want 4", inserted)
	}
	if sp.FreeSpace() >= 20 {
		t.Errorf("FreeSpace = %d after filling", sp.FreeSpace())
	}
}

func TestSlottedMaxRecord(t *testing.T) {
	st, _, sp := slottedPage(t, 256)
	max := MaxRecord(st.PageSize())
	if _, ok := sp.Insert(bytes.Repeat([]byte("a"), max)); !ok {
		t.Error("record of exactly MaxRecord should fit an empty page")
	}
	_, _, sp2 := slottedPage(t, 256)
	if _, ok := sp2.Insert(bytes.Repeat([]byte("a"), max+1)); ok {
		t.Error("record above MaxRecord must not fit")
	}
}

func TestSlottedDelete(t *testing.T) {
	_, _, sp := slottedPage(t, 256)
	s0, _ := sp.Insert([]byte("keep"))
	s1, _ := sp.Insert([]byte("kill"))
	if err := sp.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if sp.Live(s1) {
		t.Error("deleted slot still live")
	}
	if !sp.Live(s0) {
		t.Error("sibling slot died")
	}
	if _, err := sp.Read(s1); err == nil {
		t.Error("read of deleted slot should fail")
	}
	if got, _ := sp.Read(s0); string(got) != "keep" {
		t.Errorf("slot 0 = %q", got)
	}
	if err := sp.Delete(Slot(99)); err == nil {
		t.Error("delete out of range should fail")
	}
	if sp.Live(Slot(99)) {
		t.Error("out-of-range slot should not be live")
	}
}

func TestSlottedReadOutOfRange(t *testing.T) {
	_, _, sp := slottedPage(t, 256)
	if _, err := sp.Read(Slot(0)); err == nil {
		t.Error("read from empty page should fail")
	}
}

func TestSlottedNextLink(t *testing.T) {
	_, _, sp := slottedPage(t, 256)
	if sp.Next() != InvalidPage {
		t.Error("fresh page should have no next link")
	}
	sp.SetNext(PageID(7))
	if sp.Next() != PageID(7) {
		t.Errorf("Next = %d", sp.Next())
	}
}

// TestSlottedProperty checks random insert sequences against a slice
// oracle: every inserted record reads back intact and FreeSpace only
// decreases.
// TestSlottedZeroLengthInsertNearFull pins the regression where a
// zero-length record passed the FreeSpace check on a page whose
// directory-to-data gap was smaller than a slot entry (FreeSpace clamps
// to 0), so its directory entry overwrote the lowest record's bytes.
func TestSlottedZeroLengthInsertNearFull(t *testing.T) {
	st, _, sp := slottedPage(t, 512)
	// One record sized to leave a 3-byte gap: header 10 + slot 4 +
	// record = usable-3. A slot entry needs 4.
	rec := bytes.Repeat([]byte{0xAB}, st.PageSize()-slottedHeaderSize-slotSize-3)
	if _, ok := sp.Insert(rec); !ok {
		t.Fatal("setup insert failed")
	}
	if free := sp.FreeSpace(); free != 0 {
		t.Fatalf("FreeSpace = %d, want 0", free)
	}
	if _, ok := sp.Insert(nil); ok {
		t.Error("zero-length insert into a 3-byte gap should be refused")
	}
	got, err := sp.Read(Slot(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rec) {
		t.Error("record corrupted by refused insert")
	}
}

func TestSlottedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, err := CreateTemp(Options{PageSize: 512, PoolPages: 2})
		if err != nil {
			return false
		}
		defer st.Close()
		p, err := st.Allocate()
		if err != nil {
			return false
		}
		defer st.Unpin(p, false)
		sp := InitSlotted(p)
		var oracle [][]byte
		prevFree := sp.FreeSpace()
		for i := 0; i < 60; i++ {
			rec := make([]byte, rng.Intn(40))
			rng.Read(rec)
			slot, ok := sp.Insert(rec)
			if !ok {
				break
			}
			if int(slot) != len(oracle) {
				return false
			}
			oracle = append(oracle, rec)
			if sp.FreeSpace() > prevFree {
				return false
			}
			prevFree = sp.FreeSpace()
		}
		for i, want := range oracle {
			got, err := sp.Read(Slot(i))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHeapInsertViewCursor(t *testing.T) {
	st := tempStore(t, Options{PageSize: 128, PoolPages: 4})
	h, err := NewHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1+i%30)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		want = append(want, rec)
	}
	for i, rid := range rids {
		err := h.View(rid, func(got []byte) error {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("rid %v = %v, want %v", rid, got, want[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The cursor must visit every record once, in insertion order here
	// (heap appends and never reorders).
	c := NewHeapCursor(st, h.FirstPage())
	var seen int
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		if seen < len(want) && !bytes.Equal(rec, want[seen]) {
			t.Errorf("cursor item %d = %v, want %v", seen, rec, want[seen])
		}
		seen++
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Errorf("cursor saw %d records, want %d", seen, len(want))
	}
	if st.NumPages() < 2 {
		t.Error("heap should have chained multiple pages")
	}
}

func TestHeapView(t *testing.T) {
	st := tempStore(t, Options{PageSize: 128, PoolPages: 4})
	h, err := NewHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("viewme"))
	if err != nil {
		t.Fatal(err)
	}
	called := false
	err = h.View(rid, func(rec []byte) error {
		called = true
		if string(rec) != "viewme" {
			t.Errorf("view rec = %q", rec)
		}
		return nil
	})
	if err != nil || !called {
		t.Errorf("View err=%v called=%v", err, called)
	}
}

func TestHeapRejectsOversized(t *testing.T) {
	st := tempStore(t, Options{PageSize: 128, PoolPages: 4})
	h, err := NewHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(make([]byte, 1000)); err == nil {
		t.Error("oversized record should be rejected")
	}
}

// TestHeapReopen reopens a heap at its committed first and last pages
// (OpenHeapAt, the durable open path) and appends to it.
func TestHeapReopen(t *testing.T) {
	st := tempStore(t, Options{PageSize: 128, PoolPages: 4})
	h, err := NewHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 30; i++ {
		rid, err := h.Insert([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	h2 := OpenHeapAt(st, h.FirstPage(), h.LastPage())
	rid, err := h2.Insert([]byte{99})
	if err != nil {
		t.Fatal(err)
	}
	view := func(rid RID, want byte) {
		t.Helper()
		err := h2.View(rid, func(got []byte) error {
			if len(got) != 1 || got[0] != want {
				t.Errorf("record %v = %v, want [%d]", rid, got, want)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	view(rid, 99)
	// Old records still readable through the reopened heap.
	view(rids[0], 0)
}

// TestHeapAppenderMatchesInsert writes one record sequence through an
// Appender and through repeated Insert calls on two identical stores:
// both must hand out the same RIDs and build the same page chain with
// the same page bytes. The sequence holds records that exactly fill
// the tail's free space, maximal records that fill an empty page,
// empty records and a record too large for any page (rejected by both
// without touching the heap). After Close the appender holds no pin,
// so DropCache succeeds.
func TestHeapAppenderMatchesInsert(t *testing.T) {
	opts := Options{PageSize: 256, PoolPages: 64}
	stA, stI := tempStore(t, opts), tempStore(t, opts)
	hA, err := NewHeap(stA)
	if err != nil {
		t.Fatal(err)
	}
	hI, err := NewHeap(stI)
	if err != nil {
		t.Fatal(err)
	}
	hA.Track()
	hI.Track()
	maxRec := MaxRecord(stI.PageSize())
	tailFree := func() int {
		p, err := stI.Fetch(hI.LastPage())
		if err != nil {
			t.Fatal(err)
		}
		defer stI.Unpin(p, false)
		return ViewSlotted(p).FreeSpace()
	}
	rng := rand.New(rand.NewSource(7))
	app := hA.Appender()
	defer app.Close()
	for i := 0; i < 400; i++ {
		var n int
		switch k := rng.Intn(10); {
		case i%100 == 50:
			n = maxRec + 1 // too large for any page
		case k == 0:
			n = tailFree() // exactly fills the tail
		case k == 1:
			n = maxRec // fills an empty page
		case k == 2:
			n = 0
		default:
			n = 1 + rng.Intn(60)
		}
		rec := bytes.Repeat([]byte{byte(i)}, n)
		ridA, errA := app.Append(rec)
		ridI, errI := hI.Insert(rec)
		if (errA == nil) != (errI == nil) {
			t.Fatalf("record %d (%d bytes): appender error %v, insert error %v", i, n, errA, errI)
		}
		if n > maxRec {
			if errA == nil {
				t.Fatalf("record %d of %d bytes accepted", i, n)
			}
			continue
		}
		if errA != nil {
			t.Fatal(errA)
		}
		if ridA != ridI {
			t.Fatalf("record %d (%d bytes): appender RID %v, insert RID %v", i, n, ridA, ridI)
		}
	}
	app.Close()
	if hA.LastPage() != hI.LastPage() {
		t.Errorf("last page: appender %d, insert %d", hA.LastPage(), hI.LastPage())
	}
	trackedA, trackedI := hA.TakeTracked(), hI.TakeTracked()
	if len(trackedI) < 10 || !slices.Equal(trackedA, trackedI) {
		t.Errorf("chained pages: appender %v, insert %v", trackedA, trackedI)
	}
	pages := 0
	for idA, idI := hA.FirstPage(), hI.FirstPage(); idA != InvalidPage || idI != InvalidPage; pages++ {
		if idA != idI {
			t.Fatalf("chain position %d: appender page %d, insert page %d", pages, idA, idI)
		}
		pA, err := stA.Fetch(idA)
		if err != nil {
			t.Fatal(err)
		}
		pI, err := stI.Fetch(idI)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pA.Data(), pI.Data()) {
			t.Errorf("page %d bytes differ", idA)
		}
		idA, idI = ViewSlotted(pA).Next(), ViewSlotted(pI).Next()
		stA.Unpin(pA, false)
		stI.Unpin(pI, false)
	}
	if pages != len(trackedI)+1 {
		t.Errorf("chain of %d pages, %d chained after the first", pages, len(trackedI))
	}
	if err := stA.DropCache(); err != nil {
		t.Errorf("appender left a pin after Close: %v", err)
	}
	if err := stI.DropCache(); err != nil {
		t.Errorf("insert left a pin: %v", err)
	}
}
