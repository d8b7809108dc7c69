// Package stats holds the cardinality statistics the planner's
// estimates consume: per-tag posting counts from the tag index, and
// per-(tag, value) cardinalities from the value index, aggregated into
// one Catalog per database state. The storage layer computes a catalog
// on demand with one scan of a pinned snapshot's indexes
// (storage.Snapshot.CardStats) and stores none; the planner
// (internal/opt/planner) turns it into per-operator row estimates for
// EXPLAIN. The package is a leaf — it knows nothing about pages,
// B+trees or plans — so both layers can import it.
package stats

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
	// TotalNodes is the total node count across all documents (every
	// node carries exactly one tag posting).
	TotalNodes uint64 `json:"total_nodes"`
	// Documents is the number of documents in the catalog.
	Documents uint64 `json:"documents"`
	// Tags maps each element tag to its cardinalities.
	Tags map[string]TagStat `json:"tags"`
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

// Postings estimates the number of nodes with the given tag. Unknown
// tags estimate to zero — the statistics are exact, so an unknown tag
// genuinely has no postings.
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

// Equal reports whether two catalogs carry identical statistics.
func (c *Catalog) Equal(o *Catalog) bool {
	if c == nil || o == nil {
		return c == o
	}
	if c.TotalNodes != o.TotalNodes || c.Documents != o.Documents ||
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
