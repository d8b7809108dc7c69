package xmltree

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// failWriter fails after n bytes.
type failWriter struct{ left int }

var errWriterFull = errors.New("writer full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errWriterFull
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errWriterFull
	}
	return n, nil
}

func TestSerializeWriterError(t *testing.T) {
	tree := E("doc_root",
		E("article", Elem("author", "Jack"), Elem("title", "T")),
	)
	// The error must surface regardless of where the writer fails.
	for limit := 0; limit < 40; limit += 7 {
		err := Serialize(&failWriter{left: limit}, tree)
		if !errors.Is(err, errWriterFull) {
			t.Errorf("limit %d: err = %v, want writer error", limit, err)
		}
	}
	// A big enough writer succeeds.
	if err := Serialize(&failWriter{left: 1 << 20}, tree); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := E("a", Elem("b", `x < y & z > w`)).WithAttr("q", `say "hi" & <bye>`)
	s := SerializeString(n)
	for _, banned := range []string{`<y`, `& z`, `"hi"`} {
		if strings.Contains(s, banned) {
			t.Errorf("unescaped %q in output:\n%s", banned, s)
		}
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s)
	}
	if !Equal(n, back) {
		t.Errorf("escape round trip mismatch:\n%s\n%s", n, back)
	}
}

// TestSerializeDeepIndent: a 1 000-deep chain — FuzzParse's deepest
// seed, closed — serializes to two spaces of indentation per level,
// past the length of the constant the indentation is cut from, and
// its serialized size is computed exactly.
func TestSerializeDeepIndent(t *testing.T) {
	const depth = 1000
	n, err := ParseString(strings.Repeat("<a>", depth) + "x" + strings.Repeat("</a>", depth))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for i := 0; i < depth-1; i++ {
		want.WriteString(strings.Repeat("  ", i) + "<a>\n")
	}
	want.WriteString(strings.Repeat("  ", depth-1) + "<a>x</a>\n")
	for i := depth - 2; i >= 0; i-- {
		want.WriteString(strings.Repeat("  ", i) + "</a>\n")
	}
	got := SerializeString(n)
	if got != want.String() {
		t.Fatalf("deep serialization differs (len %d, want %d)", len(got), want.Len())
	}
	if size := serializedSize(n, 0); size != len(got) {
		t.Errorf("serializedSize = %d, serialization is %d bytes", size, len(got))
	}
}

// TestSerializedSizeExact: without characters to escape, the size
// SerializeString grows its builder to is the serialization's length,
// for every shape writeIndented distinguishes — empty, leaf with
// content, attributes, and mixed content before children.
func TestSerializedSizeExact(t *testing.T) {
	mixed := E("article", Elem("title", "T"), E("empty")).WithAttr("key", "k1").WithAttr("mdate", "2002")
	mixed.Content = "text"
	for _, n := range []*Node{
		E("empty"),
		Elem("title", "XML"),
		E("empty").WithAttr("a", "1"),
		E("doc_root", mixed, Elem("author", "Jack")),
	} {
		if got, size := SerializeString(n), serializedSize(n, 0); size != len(got) {
			t.Errorf("serializedSize = %d, serialization is %d bytes:\n%s", size, len(got), got)
		}
	}
}

// TestSerializeAllocCeiling: serializing an E1 result tree — one
// authorpubs element holding an author and twelve titles, the average
// group of Query 1 over generated DBLP data — allocates the output
// once, plus the writer: no builder regrowth and nothing per node.
func TestSerializeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	group := E("authorpubs", Elem("author", "Ada Al-Khalifa 0"))
	for i := 0; i < 12; i++ {
		group.Append(Elem("title", fmt.Sprintf("Concurrency Trees Indexing Recovery %d", i)))
	}
	allocs := testing.AllocsPerRun(100, func() { _ = SerializeString(group) })
	t.Logf("%.0f allocations per SerializeString", allocs)
	if allocs > 2 {
		t.Errorf("SerializeString allocates %.0f times per E1 tree, want at most 2", allocs)
	}
}
