package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"timber/internal/pagestore"
)

// sortedWriter is the batch-insert surface Tree and COW share.
type sortedWriter interface {
	InsertSorted(kvs []KV) error
	Root() pagestore.PageID
}

// batchStore is a store of 256-byte pages (about a dozen cells per
// leaf, so a few hundred keys make a three-level tree) with a pool
// large enough that the big batches stay in memory.
func batchStore(t testing.TB) *pagestore.Store {
	t.Helper()
	st, err := pagestore.CreateTemp(pagestore.Options{PageSize: 256, PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func batchKey(i int) []byte { return fmt.Appendf(nil, "k%07d", i) }

// model is the reference the trees are checked against.
type model map[string]string

func (m model) sorted() []KV {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: []byte(k), Value: []byte(m[k])}
	}
	return out
}

// checkTree walks the tree at root and fails unless it is a well-formed
// B+tree: every page fits, keys are strictly increasing and inside the
// bounds their parents' separators set, and all leaves sit at one
// depth. It returns the leaf cells in key order.
func checkTree(t testing.TB, st *pagestore.Store, root pagestore.PageID) []KV {
	t.Helper()
	var out []KV
	leafDepth := -1
	var walk func(id pagestore.PageID, depth int, lo, hi []byte)
	walk = func(id pagestore.PageID, depth int, lo, hi []byte) {
		n, err := Open(st, id).readNode(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if n.encodedSize() > st.PageSize() {
			t.Fatalf("page %d encodes %d bytes > %d", id, n.encodedSize(), st.PageSize())
		}
		for i, c := range n.cells {
			if i > 0 && bytes.Compare(n.cells[i-1].key, c.key) >= 0 {
				t.Fatalf("page %d: keys out of order at %d", id, i)
			}
			if (lo != nil && bytes.Compare(c.key, lo) < 0) || (hi != nil && bytes.Compare(c.key, hi) >= 0) {
				t.Fatalf("page %d: key %q outside [%q, %q)", id, c.key, lo, hi)
			}
		}
		if n.leaf {
			if leafDepth >= 0 && depth != leafDepth {
				t.Fatalf("leaf %d at depth %d, others at %d", id, depth, leafDepth)
			}
			leafDepth = depth
			for _, c := range n.cells {
				out = append(out, KV{Key: append([]byte(nil), c.key...), Value: append([]byte(nil), c.value...)})
			}
			return
		}
		bound := lo
		child := n.left
		for _, c := range n.cells {
			walk(child, depth+1, bound, c.key)
			bound, child = c.key, c.child
		}
		walk(child, depth+1, bound, hi)
	}
	walk(root, 0, nil, nil)
	return out
}

// reachable returns a copy of every page reachable from root.
func reachable(t testing.TB, st *pagestore.Store, root pagestore.PageID) map[pagestore.PageID][]byte {
	t.Helper()
	pages := map[pagestore.PageID][]byte{}
	var walk func(id pagestore.PageID)
	walk = func(id pagestore.PageID) {
		p, err := st.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		data := append([]byte(nil), p.Data()...)
		st.Unpin(p, false)
		pages[id] = data
		n, err := decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if n.leaf {
			return
		}
		walk(n.left)
		for _, c := range n.cells {
			walk(c.child)
		}
	}
	walk(root)
	return pages
}

// assertPagesUnchanged fails if any page of before differs now.
func assertPagesUnchanged(t testing.TB, st *pagestore.Store, before map[pagestore.PageID][]byte) {
	t.Helper()
	for id, want := range before {
		p, err := st.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		same := bytes.Equal(p.Data(), want)
		st.Unpin(p, false)
		if !same {
			t.Fatalf("page %d reachable from the original root changed", id)
		}
	}
}

func assertContents(t testing.TB, got []KV, m model) {
	t.Helper()
	want := m.sorted()
	if len(got) != len(want) {
		t.Fatalf("tree holds %d keys, model %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("cell %d = %q=%q, model %q=%q", i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// baseTree builds a tree of n keys, the multiples of 16 (so batches
// can put up to 15 keys in each gap), with per-key inserts, and the
// model of it.
func baseTree(t testing.TB, st *pagestore.Store, n int) (*Tree, model) {
	t.Helper()
	tr, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	m := model{}
	for i := 0; i < n; i++ {
		k, v := batchKey(16*i), fmt.Sprintf("b%d", i)
		if err := tr.Insert(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		m[string(k)] = v
	}
	return tr, m
}

// withWriter runs one batch through a Tree in place or through a COW
// over it. For the COW it also asserts snapshot safety: every page
// reachable from the original root is byte-identical afterwards. It
// returns the root holding the result and the batch's error.
func withWriter(t testing.TB, st *pagestore.Store, tr *Tree, cow bool, kvs []KV) (pagestore.PageID, error) {
	t.Helper()
	var w sortedWriter = tr
	var before map[pagestore.PageID][]byte
	if cow {
		before = reachable(t, st, tr.Root())
		w = tr.BeginCOW()
	}
	err := w.InsertSorted(kvs)
	if cow {
		assertPagesUnchanged(t, st, before)
	}
	return w.Root(), err
}

// batchRun returns the run of keys picked by keyOf(0..n-1), sorted,
// with values naming their position.
func batchRun(n int, keyOf func(i int) int) []KV {
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: batchKey(keyOf(i)), Value: fmt.Appendf(nil, "v%d", i%1000)}
	}
	sort.Slice(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
	return kvs
}

// TestInsertSortedMatchesModel runs table batches into empty, one-leaf
// and three-level trees, through Tree and COW, and checks the result
// against a map model and the B+tree invariants.
func TestInsertSortedMatchesModel(t *testing.T) {
	bases := []struct {
		name string
		n    int
	}{{"empty", 0}, {"one-leaf", 5}, {"three-level", 600}}
	runs := []struct {
		name  string
		keyOf func(i int) int
	}{
		{"append", func(i int) int { return 100000 + i }},                // past every key: rightmost leaf
		{"interleave", func(i int) int { return 16*i + 1 }},              // one per gap, spans many leaves
		{"cluster", func(i int) int { return 16*(300+i/10) + 1 + i%10 }}, // ten per gap from mid-tree on
		{"prepend", func(i int) int { return -1 - i }},                   // before every key (negative keys sort low)
	}
	for _, base := range bases {
		for _, run := range runs {
			for _, size := range []int{1, 2, 13, 100, 1000, 5000} {
				for _, cow := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%d/cow=%v", base.name, run.name, size, cow)
					t.Run(name, func(t *testing.T) {
						st := batchStore(t)
						tr, m := baseTree(t, st, base.n)
						h0, err := tr.Height()
						if err != nil {
							t.Fatal(err)
						}
						if base.name == "three-level" && h0 != 3 {
							t.Fatalf("base height %d, want 3", h0)
						}
						kvs := batchRun(size, run.keyOf)
						root, err := withWriter(t, st, tr, cow, kvs)
						if err != nil {
							t.Fatal(err)
						}
						for _, kv := range kvs {
							m[string(kv.Key)] = string(kv.Value)
						}
						assertContents(t, checkTree(t, st, root), m)
						if size == 5000 && base.n <= 5 {
							// One batch grows a lone leaf by two or more levels.
							h, err := Open(st, root).Height()
							if err != nil {
								t.Fatal(err)
							}
							if h-h0 < 2 {
								t.Fatalf("height %d -> %d, want growth by >= 2 levels", h0, h)
							}
						}
					})
				}
			}
		}
	}
}

// TestInsertSortedRandom is the property form: random base trees take
// random batches, and after each batch the tree equals the model.
func TestInsertSortedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 40; trial++ {
		cow := trial%2 == 1
		st := batchStore(t)
		tr, m := baseTree(t, st, rng.Intn(400))
		for round := 0; round < 3; round++ {
			size := 1 + rng.Intn([]int{5, 60, 2000}[rng.Intn(3)])
			seen := map[int]bool{}
			var kvs []KV
			for len(kvs) < size {
				k := rng.Intn(20000)
				if _, has := m[string(batchKey(k))]; has || seen[k] {
					continue
				}
				seen[k] = true
				v := make([]byte, rng.Intn(30))
				rng.Read(v)
				kvs = append(kvs, KV{Key: batchKey(k), Value: v})
			}
			sort.Slice(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
			root, err := withWriter(t, st, tr, cow, kvs)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			for _, kv := range kvs {
				m[string(kv.Key)] = string(kv.Value)
			}
			assertContents(t, checkTree(t, st, root), m)
			tr = Open(st, root)
		}
	}
}

// TestInsertSortedRejectsBadRuns: empty keys, unsorted runs, in-batch
// duplicates and oversize cells fail before any page is written.
func TestInsertSortedRejectsBadRuns(t *testing.T) {
	big := make([]byte, batchStore(t).PageSize())
	bad := map[string][]KV{
		"empty key":          {{Key: batchKey(1)}, {Key: nil}},
		"unsorted":           {{Key: batchKey(3)}, {Key: batchKey(1)}},
		"in-batch duplicate": {{Key: batchKey(1)}, {Key: batchKey(1)}},
		"oversize":           {{Key: batchKey(1)}, {Key: batchKey(3), Value: big}},
	}
	for name, kvs := range bad {
		for _, cow := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cow=%v", name, cow), func(t *testing.T) {
				st := batchStore(t)
				tr, m := baseTree(t, st, 300)
				before := reachable(t, st, tr.Root())
				pagesBefore := st.NumPages()
				root, err := withWriter(t, st, tr, cow, kvs)
				if err == nil {
					t.Fatal("bad run accepted")
				}
				if errors.Is(err, ErrDuplicate) {
					t.Fatalf("malformed run reported as ErrDuplicate: %v", err)
				}
				if root != tr.Root() || st.NumPages() != pagesBefore {
					t.Fatalf("rejected run moved the root or allocated %d pages", st.NumPages()-pagesBefore)
				}
				assertPagesUnchanged(t, st, before)
				assertContents(t, checkTree(t, st, root), m)
			})
		}
	}
}

// TestInsertSortedDuplicateAgainstTree: a run holding a key the tree
// already has fails with ErrDuplicate, leaves the tree well formed with
// the old value in place, and holds at most the run's other keys.
func TestInsertSortedDuplicateAgainstTree(t *testing.T) {
	for _, dupAt := range []int{0, 150, 299} {
		for _, cow := range []bool{false, true} {
			t.Run(fmt.Sprintf("at=%d/cow=%v", dupAt, cow), func(t *testing.T) {
				st := batchStore(t)
				tr, m := baseTree(t, st, 300)
				kvs := batchRun(500, func(i int) int {
					if i == dupAt {
						return 16 * i // present in the base tree
					}
					return 16*i + 1
				})
				root, err := withWriter(t, st, tr, cow, kvs)
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("err = %v, want ErrDuplicate", err)
				}
				got := checkTree(t, st, root)
				inRun := map[string]bool{}
				for _, kv := range kvs {
					inRun[string(kv.Key)] = true
				}
				have := map[string]bool{}
				for _, kv := range got {
					k := string(kv.Key)
					have[k] = true
					if v, ok := m[k]; ok {
						if string(kv.Value) != v {
							t.Fatalf("existing key %s changed to %q", k, kv.Value)
						}
					} else if !inRun[k] {
						t.Fatalf("key %s from nowhere", k)
					}
				}
				for k := range m {
					if !have[k] {
						t.Fatalf("existing key %s lost", k)
					}
				}
			})
		}
	}
}

// TestSplitBalanced: an overfull node splits into the fewest pieces
// that fit, each carrying a near-equal share, for leaves and internal
// nodes alike.
func TestSplitBalanced(t *testing.T) {
	const pageSize = 248
	usable := pageSize - nodeOverhead
	for _, tc := range []struct {
		leaf  bool
		cells int
	}{{true, 14}, {true, 40}, {true, 400}, {false, 19}, {false, 60}, {false, 500}} {
		n := &node{leaf: tc.leaf}
		for i := 0; i < tc.cells; i++ {
			c := cell{key: batchKey(i), child: pagestore.PageID(i + 1)}
			if tc.leaf {
				c.value = []byte("vvvvvvvv")
			}
			n.cells = append(n.cells, c)
		}
		if n.encodedSize() <= pageSize {
			t.Fatalf("%+v: node not overfull", tc)
		}
		pieces, seps := n.split(pageSize)
		if len(seps) != len(pieces)-1 {
			t.Fatalf("%+v: %d pieces, %d separators", tc, len(pieces), len(seps))
		}
		minPieces := (n.encodedSize() - nodeOverhead + usable - 1) / usable
		if len(pieces) > minPieces+1 {
			t.Fatalf("%+v: %d pieces, %d would do", tc, len(pieces), minPieces)
		}
		lo, hi := pageSize, 0
		cells := 0
		for i, p := range pieces {
			size := p.encodedSize()
			if size > pageSize {
				t.Fatalf("%+v: piece %d is %d bytes", tc, i, size)
			}
			lo, hi = min(lo, size), max(hi, size)
			cells += len(p.cells)
			if i > 0 && tc.leaf && !bytes.Equal(seps[i-1].key, p.cells[0].key) {
				t.Fatalf("%+v: leaf separator %q != first key %q", tc, seps[i-1].key, p.cells[0].key)
			}
		}
		want := tc.cells
		if !tc.leaf {
			want -= len(pieces) - 1 // each later piece's first separator moved up
		}
		if cells != want {
			t.Fatalf("%+v: pieces hold %d cells, want %d", tc, cells, want)
		}
		if hi-lo > usable/4 {
			t.Fatalf("%+v: unbalanced pieces, sizes %d..%d", tc, lo, hi)
		}
	}
}

// FuzzInsertSorted applies random batches, alternating in-place and
// copy-on-write, and checks the tree against a map model after each.
// Each batch is a length byte followed by key bytes; a batch holding a
// key the model already has must fail with ErrDuplicate.
func FuzzInsertSorted(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 200, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0, 5, 0, 5})
	f.Add(bytes.Repeat([]byte{255, 17, 34, 51, 68}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		st := batchStore(t)
		tr, err := New(st)
		if err != nil {
			t.Fatal(err)
		}
		m := model{}
		for op := 0; len(ops) > 0; op++ {
			n := int(ops[0])
			ops = ops[1:]
			var keys []int
			seen := map[int]bool{}
			for i := 0; i < n && len(ops) > 0; i++ {
				// Each key byte spreads to a distinct block of keys, so a
				// short input still makes long runs and deep trees.
				for j := 0; j < 1+int(ops[0])%7; j++ {
					k := int(ops[0])*8 + j + op%2
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				}
				ops = ops[1:]
			}
			sort.Ints(keys)
			kvs := make([]KV, len(keys))
			dup := false
			for i, k := range keys {
				kvs[i] = KV{Key: batchKey(k), Value: fmt.Appendf(nil, "%d.%d", op, k)}
				_, has := m[string(kvs[i].Key)]
				dup = dup || has
			}
			root, err := withWriter(t, st, tr, op%3 == 1, kvs)
			got := checkTree(t, st, root)
			tr = Open(st, root)
			switch {
			case dup && !errors.Is(err, ErrDuplicate):
				t.Fatalf("op %d: err = %v, want ErrDuplicate", op, err)
			case !dup && err != nil:
				t.Fatalf("op %d: %v", op, err)
			case dup:
				// A failed batch keeps a subset of the run; resync.
				m = model{}
				for _, kv := range got {
					m[string(kv.Key)] = string(kv.Value)
				}
			default:
				for _, kv := range kvs {
					m[string(kv.Key)] = string(kv.Value)
				}
				assertContents(t, got, m)
			}
		}
	})
}

// BenchmarkInsertSorted merges a 1 000-key run, in 100 clusters of 10
// like one document's postings, into a 40 000-key tree of 8 KB pages
// through a COW (the online ingest path): as one batch, and as
// per-key inserts.
func BenchmarkInsertSorted(b *testing.B) {
	st, err := pagestore.CreateTemp(pagestore.Options{PageSize: 8192, PoolPages: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	base := make([]KV, 40000)
	for i := range base {
		base[i] = KV{Key: batchKey(4 * i), Value: make([]byte, 12)}
	}
	tr, err := BulkLoad(st, base)
	if err != nil {
		b.Fatal(err)
	}
	run := batchRun(1000, func(i int) int { return 4*(400*(i/10)+i%10) + 1 })
	for _, mode := range []string{"batch", "per-key"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := tr.BeginCOW()
				var err error
				if mode == "batch" {
					err = c.InsertSorted(run)
				} else {
					for _, kv := range run {
						if err = c.Insert(kv.Key, kv.Value); err != nil {
							break
						}
					}
				}
				if err != nil {
					b.Fatal(err)
				}
				if err := st.FreePages(c.Allocated()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
