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

// valueGroups reads a value-range stream to the end, merging
// consecutive blocks of equal content into one group per distinct
// content, and checks that the contents arrive in strictly ascending
// byte order, each once.
func valueGroups(t *testing.T, s *PostingStream) (values []string, groups [][]Posting) {
	t.Helper()
	for {
		b, ok := s.NextBlock()
		if !ok {
			break
		}
		if len(b) == 0 {
			t.Fatal("stream returned an empty block")
		}
		v := string(s.Value())
		if n := len(values); n == 0 || v != values[n-1] {
			if n > 0 && v < values[n-1] {
				t.Fatalf("value %q after %q: not strictly ascending", v, values[n-1])
			}
			values = append(values, v)
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], b...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return values, groups
}

// scanPairs drains a tag's value-range stream into pairs.
func scanPairs(t *testing.T, r *Snapshot, tag string) []valuePair {
	t.Helper()
	var out []valuePair
	values, groups := valueGroups(t, r.ValueRangeStream(tag))
	for i, v := range values {
		for _, p := range groups[i] {
			out = append(out, valuePair{v, p})
		}
	}
	return out
}

// coveredPairs is the reference for a value-range scan: every posting
// of tag with its heap content, keeping the contents the value index
// holds, in (content, doc, start) order.
func coveredPairs(t *testing.T, r *Snapshot, tag string) []valuePair {
	t.Helper()
	ps, err := Drain(r.TagStream(tag))
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
	sn := pin(t, db)
	var got []string
	values, groups := valueGroups(t, sn.ValueRangeStream("author"))
	for i, v := range values {
		got = append(got, fmt.Sprintf("%s:%d", v, len(groups[i])))
	}
	if want := []string{"Jack:2", "Jill:1", "John:2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("author values = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(scanPairs(t, sn, "title"), coveredPairs(t, sn, "title")) {
		t.Error("title scan differs from the tag postings' contents")
	}
	// A stream closed after its first block stops there and releases
	// its page.
	s := sn.ValueRangeStream("author")
	if _, ok := s.NextBlock(); !ok || string(s.Value()) != "Jack" {
		t.Fatalf("first block: ok=%v value %q, want Jack", ok, s.Value())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextBlock(); ok {
		t.Error("closed stream returned a block")
	}
	if err := db.DropCache(); err != nil {
		t.Fatalf("drop cache after early close: %v", err)
	}

	noVal := testDB(t, Options{NoValueIndex: true})
	if _, err := noVal.LoadDocument("bib.xml", paperdata.SampleDatabase()); err != nil {
		t.Fatal(err)
	}
	if values, _ := valueGroups(t, pin(t, noVal).ValueRangeStream("author")); len(values) != 0 {
		t.Errorf("scan without a value index yielded %q", values)
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

// FuzzValueRange checks ValueRangeStream against its reference: the
// (content, posting) pairs of a TagStream plus ContentsBatch that the
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
		sn := pin(t, db)
		for _, tag := range []string{"v", "w", "missing"} {
			got, want := scanPairs(t, sn, tag), coveredPairs(t, sn, tag)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tag %s: scan yields %d pairs, reference %d\ngot  %v\nwant %v", tag, len(got), len(want), got, want)
			}
		}
	})
}
