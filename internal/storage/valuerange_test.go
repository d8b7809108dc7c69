package storage

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"timber/internal/paperdata"
	"timber/internal/xmltree"
)

// valuePair is one (content, posting) pair of a value-range scan.
type valuePair struct {
	content string
	posting Posting
}

// scanPairs drains ScanValueRange into pairs, checking that each
// distinct content arrives once, in strictly ascending byte order.
func scanPairs(t *testing.T, r Reader, tag string) []valuePair {
	t.Helper()
	var out []valuePair
	var last string
	first := true
	err := r.ScanValueRange(tag, func(v string, ps []Posting) error {
		if !first && v <= last {
			t.Fatalf("value %q after %q: not strictly ascending", v, last)
		}
		first, last = false, v
		if len(ps) == 0 {
			t.Fatalf("value %q yielded no postings", v)
		}
		for _, p := range ps {
			out = append(out, valuePair{v, p})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// coveredPairs is the reference for a value-range scan: every posting
// of tag with its heap content, keeping the contents the value index
// holds, in (content, doc, start) order.
func coveredPairs(t *testing.T, r Reader, tag string) []valuePair {
	t.Helper()
	ps, err := r.TagPostings(tag)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, len(ps))
	if err := r.ContentsBatch(ps, vals); err != nil {
		t.Fatal(err)
	}
	var out []valuePair
	for i, p := range ps {
		v := vals[i]
		if v == "" || len(v) > maxIndexedContent || strings.IndexByte(v, 0) >= 0 {
			continue
		}
		out = append(out, valuePair{v, p})
	}
	slices.SortStableFunc(out, func(a, b valuePair) int { return cmp.Compare(a.content, b.content) })
	return out
}

func TestScanValueRange(t *testing.T) {
	db := testDB(t, Options{})
	if _, err := db.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := db.ScanValueRange("author", func(v string, ps []Posting) error {
		got = append(got, fmt.Sprintf("%s:%d", v, len(ps)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"Jack:2", "Jill:1", "John:2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("author values = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(scanPairs(t, db, "title"), coveredPairs(t, db, "title")) {
		t.Error("title scan differs from the tag postings' contents")
	}
	stop := fmt.Errorf("stop")
	n := 0
	if err := db.ScanValueRange("author", func(string, []Posting) error { n++; return stop }); err != stop || n != 1 {
		t.Errorf("callback error: got %v after %d calls, want stop after 1", err, n)
	}

	noVal := testDB(t, Options{NoValueIndex: true})
	if _, err := noVal.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if err := noVal.ScanValueRange("author", func(v string, _ []Posting) error {
		t.Errorf("scan without a value index yielded %q", v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// fuzzContents are the element contents FuzzValueRange draws from:
// duplicates, the empty content, NUL, byte-order traps (a prefix of
// another value, upper before lower case) and the indexable-length
// boundary.
var fuzzContents = []string{
	"", "a", "b", "ab", "a b", "B", "a\x00b", "a\x00",
	strings.Repeat("x", maxIndexedContent),
	strings.Repeat("x", maxIndexedContent+1),
	strings.Repeat("y", 2*maxIndexedContent),
}

// FuzzValueRange checks ScanValueRange against its reference: the
// (content, posting) pairs of TagPostings plus ContentsBatch that the
// value index covers, in (content, doc, start) order. The input shapes
// one to three documents of nested v (the scanned tag) and w elements
// whose contents come from fuzzContents; the documents are bulk loaded
// or inserted, so both index write paths are checked.
func FuzzValueRange(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0x81, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67, 0x78, 0x89, 0x9a, 0xab, 0xbc})
	f.Add([]byte{0xc3, 9, 9, 9, 8, 8, 0x90, 1, 1, 0x80, 6, 7, 0x49})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 200 {
			return
		}
		db := testDB(t, Options{PageSize: 4096, PoolPages: 64})
		e := xmltree.E
		docs := []*xmltree.Node{e("r")}
		stack := []*xmltree.Node{docs[0]}
		for _, b := range data {
			switch {
			case b&0xc0 == 0xc0 && len(docs) < 3:
				docs = append(docs, e("r"))
				stack = []*xmltree.Node{docs[len(docs)-1]}
			case b&0xc0 == 0x80 && len(stack) > 1:
				stack = stack[:len(stack)-1]
			default:
				tag := "v"
				if b&0x20 != 0 {
					tag = "w"
				}
				n := xmltree.Elem(tag, fuzzContents[int(b&0x1f)%len(fuzzContents)])
				stack[len(stack)-1].Append(n)
				if b&0x10 != 0 {
					stack = append(stack, n)
				}
			}
		}
		for i, d := range docs {
			name := fmt.Sprintf("d%d", i)
			var err error
			if i%2 == 0 {
				_, err = db.LoadDocument(name, d)
			} else {
				_, err = db.InsertDocument(name, d, SyncNone)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, tag := range []string{"v", "w", "missing"} {
			got, want := scanPairs(t, db, tag), coveredPairs(t, db, tag)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tag %s: scan yields %d pairs, reference %d\ngot  %v\nwant %v", tag, len(got), len(want), got, want)
			}
		}
	})
}
