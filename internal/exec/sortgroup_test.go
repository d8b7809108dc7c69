package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"timber/internal/storage"
	"timber/internal/xmltree"
)

// Ordering values for FuzzGroupSortOrder: numbers, non-numbers and
// the empty value mixed in one domain, which tax.CompareValues orders
// totally.
var fuzzOrd = []string{"1", "2", "10", "01", "-3", "2.5", "1e1", "0", "", "a", "b", "B", "aa", "1a", "NaN", "z y"}

// FuzzGroupSortOrder checks the counting group sort against a stable
// comparison sort under the k-way merge's comparator (less): the same
// rows in the same order, with the same arrival stamps, for any
// grouping-value ranks (a rank space of 1 to 32, so ranks may go
// unused), fragment boundaries, ordering values (optional, either
// direction) and arrival base.
func FuzzGroupSortOrder(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 2, 1, 0x80, 1, 2, 0, 0, 3, 0}, uint8(0))
	f.Add([]byte{5, 1, 3, 8, 2, 5, 9, 3, 0x87, 5, 4, 9, 0, 1, 2}, uint8(2))
	f.Add([]byte{6, 7, 0x8b, 6, 8, 13, 7, 9, 1, 6, 7, 0x8b}, uint8(7))
	f.Add([]byte{12, 0, 5, 11, 1, 0x81, 12, 2, 7, 0, 3, 3}, uint8(0x1b))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		// Three bytes a row. 100 rows span several of the stable
		// sort's insertion blocks; longer inputs add no behaviour, and
		// minimizing them stalls the fuzzer.
		if len(data) > 3*100 {
			return
		}
		g := &groupSortIter{desc: mode&1 != 0, ranks: 1 + int(mode>>3)}
		if mode&2 != 0 {
			g.ov = map[xmltree.NodeID]string{}
		}
		base := int64(mode & 4)
		var segs [][]Row
		var seg, all []Row
		for i := 0; i+2 < len(data); i += 3 {
			m := storage.Posting{Interval: xmltree.Interval{Doc: 1, Start: uint32(data[i+1] % 32), End: 100}}
			if g.ov != nil && data[i+2]&1 != 0 {
				g.ov[m.ID()] = fuzzOrd[int(data[i+2]&0x7f>>1)%len(fuzzOrd)]
			}
			r := Row{Member: m, HasAux: data[i+1]&0x20 != 0, Key: uint32(int(data[i]) % g.ranks)}
			seg = append(seg, r)
			all = append(all, r)
			if data[i+2]&0x80 != 0 {
				segs = append(segs, seg)
				seg = nil
			}
		}
		segs = append(segs, seg)

		want := append([]Row(nil), all...)
		for i := range want {
			want[i].Ord = base + int64(i)
		}
		sort.SliceStable(want, func(i, j int) bool { return g.less(&want[i], &want[j]) })
		got := g.sortRows(make([]Row, len(all)), segs, base)
		if len(want) == 0 && len(got) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sortRows differs from the stable comparison sort\ngot  %v\nwant %v", got, want)
		}
	})
}

// groupSortInput builds rows fragment-by-fragment like the exchange
// hands them over: n rows over distinct grouping-value ranks, in
// fragments of 2 500 rows.
func groupSortInput(n, distinct int) [][]Row {
	rng := rand.New(rand.NewSource(int64(n + distinct)))
	var frags [][]Row
	for lo := 0; lo < n; lo += 2500 {
		frag := make([]Row, 0, min(2500, n-lo))
		for i := lo; i < lo+cap(frag); i++ {
			m := storage.Posting{Interval: xmltree.Interval{Doc: 1, Start: uint32(10 * i), End: uint32(10*i + 9)}}
			frag = append(frag, Row{Member: m, Aux: m, HasAux: true, Key: uint32(rng.Intn(distinct))})
		}
		frags = append(frags, frag)
	}
	return frags
}

// BenchmarkGroupSort times the in-memory group sort (rows × distinct
// grouping values) from the exchange's fragments to the sorted output
// array.
func BenchmarkGroupSort(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		for _, distinct := range []int{10, 1_000, 100_000} {
			frags := groupSortInput(rows, distinct)
			b.Run(fmt.Sprintf("rows=%d/keys=%d", rows, distinct), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					gs := newGroupSort(frags, nil, distinct, nil, false, 0, nil)
					if err := gs.Open(); err != nil {
						b.Fatal(err)
					}
					if len(gs.buf) != rows {
						b.Fatalf("sorted %d rows, want %d", len(gs.buf), rows)
					}
				}
			})
		}
	}
}
