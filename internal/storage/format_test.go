package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"timber/internal/xmltree"
)

const formatTestDoc = `<bib>
  <article key="a1"><author>A</author><title>T1</title><year>2000</year></article>
  <article key="a2"><author>B</author><author>A</author><title>T2</title><year>2001</year></article>
</bib>`

func buildFormatDB(t *testing.T, path string, opts Options) {
	t.Helper()
	db, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXML("bib.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenSniffsFormat reopens a database with plain options: Open
// must read the file's framing and page size from its meta blob and
// serve the same query-visible data. A meta blob whose flags byte lacks
// the compact or the page-codec bit declares a format this build no
// longer writes, and Open must refuse it with ErrNeedsRebuild.
func TestOpenSniffsFormat(t *testing.T) {
	t.Run("compressed", func(t *testing.T) {
		path := t.TempDir() + "/db"
		buildFormatDB(t, path, Options{})
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sn := db.Snapshot()
		defer sn.Close()
		ps, err := Drain(sn.TagStream("author"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != 3 {
			t.Fatalf("got %d author postings, want 3", len(ps))
		}
		content, err := sn.Content(ps[0])
		if err != nil || content != "A" {
			t.Fatalf("Content = %q, %v", content, err)
		}
		vp, err := valuePostings(sn, "author", "A")
		if err != nil {
			t.Fatal(err)
		}
		if len(vp) != 2 {
			t.Fatalf("got %d value postings for author=A, want 2", len(vp))
		}
	})
	for _, tc := range []struct {
		name  string
		clear byte
	}{
		{"no-compact-flag", metaFlagCompact},
		{"no-page-codec-flag", metaFlagPageCodec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/db"
			buildFormatDB(t, path, Options{})
			clearMetaFlag(t, path, tc.clear)
			_, err := Open(path, Options{})
			if !errors.Is(err, ErrNeedsRebuild) {
				t.Fatalf("Open with flag %#x cleared: %v, want ErrNeedsRebuild", tc.clear, err)
			}
		})
	}
}

// clearMetaFlag clears bits in the flags byte of the checkpointed meta
// blob on page 0 and re-seals the slot checksum, so the file differs
// from a valid one only in the format it declares. The write-ahead log
// is emptied so recovery cannot supply a newer blob.
func clearMetaFlag(t *testing.T, path string, bits byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 slot: [flag][clen u32][crc u32][payload]; the meta blob's
	// flags byte sits at payload offset 39.
	const payload = 9
	clen := binary.LittleEndian.Uint32(raw[1:5])
	raw[payload+39] &^= bits
	binary.LittleEndian.PutUint32(raw[5:9], crc32.Checksum(raw[payload:payload+int(clen)], metaCastagnoli))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath(path), 0); err != nil {
		t.Fatal(err)
	}
}

// TestOpenOldFormat crafts files in the v2 layouts — magic at offset 0
// (uncompressed) and the old 5-byte codec framing with the magic at
// offset 5 — and expects ErrNeedsRebuild from both: the
// detect-and-rebuild contract of the format bump.
func TestOpenOldFormat(t *testing.T) {
	for _, tc := range []struct {
		name string
		head []byte
	}{
		{"uncompressed", []byte("TIMBERGO\x02\x00")},
		{"page-codec", append([]byte{0, 0, 0, 0, 0}, []byte("TIMBERGO\x02\x00")...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/old.db"
			blob := make([]byte, 8192)
			copy(blob, tc.head)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, Options{})
			if !errors.Is(err, ErrNeedsRebuild) {
				t.Fatalf("Open of v2 file: %v, want ErrNeedsRebuild", err)
			}
		})
	}
}

// TestIncrementalSecondDocument exercises the incremental path: a
// second document merges its block-packed runs into the trees, and its
// postings must interleave correctly with the bulk-loaded first.
func TestIncrementalSecondDocument(t *testing.T) {
	db, err := CreateTemp(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXML("one.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXML("two.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	sn := db.Snapshot()
	defer sn.Close()
	ps, err := Drain(sn.TagStream("author"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 6 {
		t.Fatalf("got %d author postings, want 6", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1], ps[i]
		if a.Interval.Doc > b.Interval.Doc ||
			(a.Interval.Doc == b.Interval.Doc && a.Interval.Start >= b.Interval.Start) {
			t.Fatalf("postings out of document order at %d: %+v then %+v", i, a, b)
		}
	}
	// The per-document stream sees only its document.
	doc2, err := Drain(sn.TagDocStream("author", xmltree.DocID(2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range doc2 {
		if p.Interval.Doc != 2 {
			t.Fatalf("doc stream returned doc %d", p.Interval.Doc)
		}
	}
	if len(doc2) != 3 {
		t.Fatalf("doc stream saw %d postings, want 3", len(doc2))
	}
}

// TestSizeInfo sanity-checks the bytes-on-disk breakdown.
func TestSizeInfo(t *testing.T) {
	db, err := CreateTemp(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadXML("bib.xml", strings.NewReader(formatTestDoc)); err != nil {
		t.Fatal(err)
	}
	info, err := db.SizeInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Codec != "lz" {
		t.Errorf("DB should use the lz page codec, got %+v", info)
	}
	if info.HeapPages == 0 || info.IndexPages == 0 || info.TagCells == 0 {
		t.Errorf("zero components: %+v", info)
	}
	if got := info.HeapPages + info.IndexPages; got > info.TotalPages {
		t.Errorf("components (%d pages) exceed total %d", got, info.TotalPages)
	}
	if info.TotalBytes != uint64(info.TotalPages)*uint64(info.PageSize) {
		t.Errorf("TotalBytes %d != pages %d * slot %d", info.TotalBytes, info.TotalPages, info.PageSize)
	}
}
