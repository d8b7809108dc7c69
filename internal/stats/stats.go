// Package stats holds the cardinality statistics the planner's
// estimates consume: per-tag posting counts from the tag index, and
// per-(tag, value) cardinalities from the value index, aggregated into
// one Catalog per database state. The storage layer collects and
// persists catalogs (see storage.BuildCardStats / Reader.CardStats);
// the planner (internal/opt/planner) turns them into per-operator row
// estimates for EXPLAIN. The package is a leaf — it knows nothing about pages,
// B+trees or plans — so both layers can import it.
package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// TagStat aggregates the index cardinalities of one element tag.
type TagStat struct {
	// Postings is the number of tag-index postings — nodes with this
	// tag across all documents.
	Postings uint64 `json:"postings"`
	// Docs is the number of distinct documents containing the tag.
	Docs uint64 `json:"docs"`
	// ValuePostings is the number of value-index postings under this
	// tag (nodes with indexable content).
	ValuePostings uint64 `json:"value_postings,omitempty"`
	// DistinctValues is the number of distinct (tag, content) pairs in
	// the value index.
	DistinctValues uint64 `json:"distinct_values,omitempty"`
}

// Catalog is one database state's cardinality statistics.
type Catalog struct {
	// Epoch is the storage epoch the statistics were built or last
	// refreshed at. Diagnostic: epochs restart at 1 on reopen, so
	// freshness is decided by Version, not Epoch.
	Epoch uint64 `json:"epoch"`
	// Version is the opaque data-version token of the state the
	// statistics describe. The storage layer derives it from durable
	// catalog state (never-reused document IDs plus document count), so
	// it survives reopen and changes on every document insert or
	// delete. Statistics whose Version disagrees with the live state's
	// are stale — typically after an offline bulk load, which bypasses
	// incremental maintenance.
	Version uint64 `json:"version"`
	// TotalNodes is the total node count across all documents (every
	// node carries exactly one tag posting).
	TotalNodes uint64 `json:"total_nodes"`
	// Documents is the number of documents in the catalog.
	Documents uint64 `json:"documents"`
	// Tags maps each element tag to its cardinalities.
	Tags map[string]TagStat `json:"tags"`
	// Fresh reports whether Version matched the live state when the
	// catalog was read. Set by the storage layer; not persisted.
	Fresh bool `json:"fresh"`
}

// New returns an empty catalog ready for aggregation.
func New() *Catalog {
	return &Catalog{Tags: map[string]TagStat{}}
}

// Tag returns the statistics for one tag (zero if unseen).
func (c *Catalog) Tag(tag string) TagStat {
	if c == nil {
		return TagStat{}
	}
	return c.Tags[tag]
}

// TagNames returns the known tags in lexicographic order.
func (c *Catalog) TagNames() []string {
	names := make([]string, 0, len(c.Tags))
	for t := range c.Tags {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// Postings estimates the number of nodes with the given tag. Unknown
// tags estimate to zero — an unknown tag genuinely has no postings
// when the statistics are fresh.
func (c *Catalog) Postings(tag string) float64 {
	return float64(c.Tag(tag).Postings)
}

// AvgFanout estimates the number of tag occurrences per document that
// contains the tag at all.
func (c *Catalog) AvgFanout(tag string) float64 {
	t := c.Tag(tag)
	if t.Docs == 0 {
		return 0
	}
	return float64(t.Postings) / float64(t.Docs)
}

// DistinctValues estimates the number of distinct contents under the
// tag. When the value index never saw the tag (no value index, or
// contents beyond the indexable length), it falls back to half the
// posting count — the classic "unknown distinct count" guess.
func (c *Catalog) DistinctValues(tag string) float64 {
	t := c.Tag(tag)
	if t.DistinctValues > 0 {
		return float64(t.DistinctValues)
	}
	return float64(t.Postings) / 2
}

// DocOverlap estimates the fraction of b-containing documents that
// also contain a — the factor by which a structural join against an
// a-tagged ancestor thins b's postings.
func (c *Catalog) DocOverlap(a, b string) float64 {
	bd := c.Tag(b).Docs
	if bd == 0 {
		return 0
	}
	ad := c.Tag(a).Docs
	if ad >= bd {
		return 1
	}
	return float64(ad) / float64(bd)
}

// EdgeCardinality estimates the witness rows produced by extending a
// structural-join edge from parentTag (parentRows rows currently
// bound) to childTag: the child's postings, thinned by document
// overlap, and never more than parentRows times the child's average
// per-document fanout.
func (c *Catalog) EdgeCardinality(parentTag string, parentRows float64, childTag string) float64 {
	est := c.Postings(childTag) * c.DocOverlap(parentTag, childTag)
	if parentRows > 0 {
		if fan := c.AvgFanout(childTag); fan > 0 {
			if lim := parentRows * fan; lim < est {
				est = lim
			}
		}
	}
	return est
}

// Record encoding. One header record plus one record per tag, so
// incremental maintenance rewrites only the records a transaction
// touches. All fields are uvarints behind a version byte.

// encVersion is the statistics record format version.
const encVersion = 1

var errCorrupt = errors.New("stats: corrupt statistics record")

// EncodeHeader serializes the catalog-level fields.
func EncodeHeader(c *Catalog) []byte {
	b := make([]byte, 0, 1+4*binary.MaxVarintLen64)
	b = append(b, encVersion)
	b = binary.AppendUvarint(b, c.Epoch)
	b = binary.AppendUvarint(b, c.Version)
	b = binary.AppendUvarint(b, c.TotalNodes)
	b = binary.AppendUvarint(b, c.Documents)
	return b
}

// DecodeHeader parses an EncodeHeader record into a fresh catalog
// (Tags left empty).
func DecodeHeader(b []byte) (*Catalog, error) {
	if len(b) < 1 || b[0] != encVersion {
		return nil, fmt.Errorf("%w: bad header version", errCorrupt)
	}
	vals, err := uvarints(b[1:], 4)
	if err != nil {
		return nil, fmt.Errorf("%w: header", errCorrupt)
	}
	c := New()
	c.Epoch, c.Version, c.TotalNodes, c.Documents = vals[0], vals[1], vals[2], vals[3]
	return c, nil
}

// EncodeTag serializes one tag's statistics.
func EncodeTag(t TagStat) []byte {
	b := make([]byte, 0, 4*binary.MaxVarintLen64)
	b = binary.AppendUvarint(b, t.Postings)
	b = binary.AppendUvarint(b, t.Docs)
	b = binary.AppendUvarint(b, t.ValuePostings)
	b = binary.AppendUvarint(b, t.DistinctValues)
	return b
}

// DecodeTag parses an EncodeTag record.
func DecodeTag(b []byte) (TagStat, error) {
	vals, err := uvarints(b, 4)
	if err != nil {
		return TagStat{}, fmt.Errorf("%w: tag record", errCorrupt)
	}
	return TagStat{Postings: vals[0], Docs: vals[1], ValuePostings: vals[2], DistinctValues: vals[3]}, nil
}

// uvarints decodes exactly n uvarints consuming the whole buffer.
func uvarints(b []byte, n int) ([]uint64, error) {
	out := make([]uint64, n)
	off := 0
	for i := 0; i < n; i++ {
		v, w := binary.Uvarint(b[off:])
		if w <= 0 {
			return nil, errCorrupt
		}
		out[i] = v
		off += w
	}
	if off != len(b) {
		return nil, errCorrupt
	}
	return out, nil
}

// Equal reports whether two catalogs carry identical statistics
// (ignoring the read-time Fresh flag).
func (c *Catalog) Equal(o *Catalog) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.Epoch != o.Epoch || c.Version != o.Version ||
		c.TotalNodes != o.TotalNodes || c.Documents != o.Documents ||
		len(c.Tags) != len(o.Tags) {
		return false
	}
	for tag, t := range c.Tags {
		if o.Tags[tag] != t {
			return false
		}
	}
	return true
}
