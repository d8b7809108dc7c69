package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"timber/internal/pagestore"
	"timber/internal/wal"
)

// On-disk metadata, format v3. The same 48-byte blob appears in two
// places: the start of page 0's slot (the checkpointed copy) and
// RecMeta records in the write-ahead log (the authoritative copy for
// transactions committed since the last checkpoint). Layout, little
// endian except the magic:
//
//	[0:8)   magic "TIMBERGO"
//	[8:10)  version (3)
//	[10:14) heap first page
//	[14:18) heap last (insertion) page
//	[18:22) catalog B+tree root
//	[22:26) locator B+tree root
//	[26:30) tag-index B+tree root
//	[30]    1 if the value index exists
//	[31:35) value-index B+tree root
//	[35:39) page size
//	[39]    flags
//	[40:44) allocated page count
//	[44:48) next document ID
//
// Page 0 is always written raw (never through the page codec), so the
// sniffing open path can read the blob with plain offsets before any
// store exists — the blob itself then says which codec the rest of the
// file uses.
const (
	metaMagic   = "TIMBERGO"
	metaVersion = 3
	metaLen     = 48

	// Meta flags: which codecs the file uses. flagCompact covers the
	// posting-block and varint-record formats; flagPageCodec records
	// that pages (other than page 0 and raw heaps) are written through
	// the store's compression codec. This build writes both and opens
	// only files that carry both.
	metaFlagCompact   = 1 << 0
	metaFlagPageCodec = 1 << 1
	metaFlags         = metaFlagCompact | metaFlagPageCodec
)

// ErrNeedsRebuild is returned by Open for a database written in an
// older on-disk format. There is no in-place migration: rebuild the
// database by reloading its source documents (`timber load`, or the
// generator that produced it).
var ErrNeedsRebuild = errors.New("storage: database uses an old on-disk format; rebuild it from the source documents")

// snapState is one immutable published state of the database: the tree
// roots, heap bounds and catalog a snapshot reads from. Writers build
// a fresh snapState per transaction; readers pin one and everything it
// references stays untouched until the pin is released.
type snapState struct {
	epoch     uint64
	heapFirst pagestore.PageID
	heapLast  pagestore.PageID
	catalog   pagestore.PageID
	locator   pagestore.PageID
	tag       pagestore.PageID
	hasVal    bool
	val       pagestore.PageID
	nextDocID uint32
	// docs caches the decoded catalog, sorted by document ID.
	docs []DocInfo
}

// metaBlob is a decoded v3 metadata record.
type metaBlob struct {
	s        snapState // epoch and docs are not persisted
	pageSize uint32
	numPages uint32
}

func encodeMeta(s *snapState, pageSize int, numPages uint32) []byte {
	b := make([]byte, metaLen)
	copy(b[0:8], metaMagic)
	binary.LittleEndian.PutUint16(b[8:], metaVersion)
	binary.LittleEndian.PutUint32(b[10:], uint32(s.heapFirst))
	binary.LittleEndian.PutUint32(b[14:], uint32(s.heapLast))
	binary.LittleEndian.PutUint32(b[18:], uint32(s.catalog))
	binary.LittleEndian.PutUint32(b[22:], uint32(s.locator))
	binary.LittleEndian.PutUint32(b[26:], uint32(s.tag))
	if s.hasVal {
		b[30] = 1
	}
	binary.LittleEndian.PutUint32(b[31:], uint32(s.val))
	binary.LittleEndian.PutUint32(b[35:], uint32(pageSize))
	b[39] = metaFlags
	binary.LittleEndian.PutUint32(b[40:], numPages)
	binary.LittleEndian.PutUint32(b[44:], s.nextDocID)
	return b
}

func decodeMeta(b []byte) (metaBlob, error) {
	var m metaBlob
	if len(b) < metaLen {
		return m, fmt.Errorf("storage: short metadata (%d bytes)", len(b))
	}
	if string(b[0:8]) != metaMagic {
		return m, errors.New("storage: not a timber database (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(b[8:]); v != metaVersion {
		if v < metaVersion {
			return m, fmt.Errorf("%w (file is format v%d, this build reads v%d)", ErrNeedsRebuild, v, metaVersion)
		}
		return m, fmt.Errorf("storage: unsupported version %d", v)
	}
	m.s.heapFirst = pagestore.PageID(binary.LittleEndian.Uint32(b[10:]))
	m.s.heapLast = pagestore.PageID(binary.LittleEndian.Uint32(b[14:]))
	m.s.catalog = pagestore.PageID(binary.LittleEndian.Uint32(b[18:]))
	m.s.locator = pagestore.PageID(binary.LittleEndian.Uint32(b[22:]))
	m.s.tag = pagestore.PageID(binary.LittleEndian.Uint32(b[26:]))
	m.s.hasVal = b[30] == 1
	m.s.val = pagestore.PageID(binary.LittleEndian.Uint32(b[31:]))
	m.pageSize = binary.LittleEndian.Uint32(b[35:])
	flags := b[39]
	m.numPages = binary.LittleEndian.Uint32(b[40:])
	m.s.nextDocID = binary.LittleEndian.Uint32(b[44:])
	if m.pageSize < 64 || m.pageSize > 1<<24 {
		return m, fmt.Errorf("storage: implausible page size %d in metadata", m.pageSize)
	}
	if flags&metaFlags != metaFlags {
		return m, fmt.Errorf("%w (file lacks the compact or page-codec format, flags %#x)", ErrNeedsRebuild, flags)
	}
	return m, nil
}

var metaCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// errMetaTorn marks a slot-0 read that failed its checksum — the file
// may still be recoverable from the write-ahead log's RecMeta records.
var errMetaTorn = errors.New("storage: metadata page checksum mismatch")

// sniffMeta reads the checkpointed metadata directly from the file,
// before any page store exists. Page 0 is written raw with the v3
// universal slot framing ([flag][clen u32][crc u32][payload]), so the
// blob is at a fixed offset and self-describes the page size and codec
// for the store open that follows. Older formats are recognized and
// reported as ErrNeedsRebuild.
func sniffMeta(f pagestore.File) (metaBlob, error) {
	var hdr [13]byte
	if n, err := f.ReadAt(hdr[:], 0); err != nil && n < len(hdr) {
		return metaBlob{}, fmt.Errorf("storage: open: not a timber database (%d readable bytes)", n)
	}
	// Legacy format v2, uncompressed: the magic sat at file offset 0.
	if string(hdr[0:8]) == metaMagic {
		return metaBlob{}, fmt.Errorf("%w (file is format v2)", ErrNeedsRebuild)
	}
	flag, clen := hdr[0], binary.LittleEndian.Uint32(hdr[1:5])
	// Legacy format v2 behind the old 5-byte codec framing: raw slots
	// had a zero length field and the payload (starting with the magic)
	// at offset 5; compressed slots had flag 1 with the magic hidden
	// inside the compressed image. v3 never writes either shape at slot
	// 0 (the meta page is raw, with clen == usable).
	if flag == 0 && clen == 0 && string(hdr[5:13]) == metaMagic {
		return metaBlob{}, fmt.Errorf("%w (file is format v2, page codec)", ErrNeedsRebuild)
	}
	if flag == 1 {
		return metaBlob{}, fmt.Errorf("%w (file is format v2, page codec)", ErrNeedsRebuild)
	}
	if flag != 0 || clen == 0 || clen > 1<<24 {
		return metaBlob{}, errors.New("storage: open: not a timber database")
	}
	payload := make([]byte, clen)
	if n, err := f.ReadAt(payload, 9); err != nil && n < len(payload) {
		return metaBlob{}, errMetaTorn
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[5:9])
	if crc32.Checksum(payload, metaCastagnoli) != wantCRC {
		return metaBlob{}, errMetaTorn
	}
	m, err := decodeMeta(payload)
	if err != nil {
		return metaBlob{}, err
	}
	// The raw slot's length is the page's usable size; cross-check it
	// against the page size the blob claims.
	if m.pageSize != clen+pagestore.SlotHeaderLen {
		return metaBlob{}, fmt.Errorf("storage: metadata page size %d disagrees with slot framing %d", m.pageSize, clen+pagestore.SlotHeaderLen)
	}
	return m, nil
}

// lastWALMeta replays the write-ahead log and returns the metadata of
// the last committed transaction, if any. It is the fallback source of
// truth when page 0 is torn (a crash can interrupt the checkpoint's
// meta write — but only after the WAL already holds the same state).
func lastWALMeta(f pagestore.File) (metaBlob, bool, error) {
	var pendingMeta []byte
	var lastMeta []byte
	_, _, err := wal.Replay(f, func(r wal.Record) error {
		switch r.Type {
		case wal.RecMeta:
			pendingMeta = append(pendingMeta[:0], r.Payload...)
		case wal.RecCommit:
			if pendingMeta != nil {
				lastMeta = append(lastMeta[:0], pendingMeta...)
			}
		}
		return nil
	})
	if err != nil {
		return metaBlob{}, false, err
	}
	if lastMeta == nil {
		return metaBlob{}, false, nil
	}
	m, err := decodeMeta(lastMeta)
	if err != nil {
		return metaBlob{}, false, err
	}
	return m, true, nil
}
