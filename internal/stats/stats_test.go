package stats

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEstimators(t *testing.T) {
	c := New()
	c.TotalNodes = 1000
	c.Documents = 10
	c.Tags["article"] = TagStat{Postings: 100, Docs: 10}
	c.Tags["author"] = TagStat{Postings: 200, Docs: 10, ValuePostings: 200, DistinctValues: 50}
	c.Tags["rare"] = TagStat{Postings: 4, Docs: 2}

	if got := c.Postings("author"); !almost(got, 200) {
		t.Errorf("Postings(author) = %v", got)
	}
	if got := c.Postings("absent"); !almost(got, 0) {
		t.Errorf("Postings(absent) = %v, want 0", got)
	}
	if got := c.AvgFanout("author"); !almost(got, 20) {
		t.Errorf("AvgFanout(author) = %v, want 20", got)
	}
	if got := c.DistinctValues("author"); !almost(got, 50) {
		t.Errorf("DistinctValues(author) = %v, want 50", got)
	}
	// Unknown distinct count falls back to postings/2.
	if got := c.DistinctValues("article"); !almost(got, 50) {
		t.Errorf("DistinctValues(article) = %v, want 50 (fallback)", got)
	}
	// rare appears in 2 of author's 10 docs.
	if got := c.DocOverlap("rare", "author"); !almost(got, 0.2) {
		t.Errorf("DocOverlap(rare, author) = %v, want 0.2", got)
	}
	if got := c.DocOverlap("author", "rare"); !almost(got, 1) {
		t.Errorf("DocOverlap(author, rare) = %v, want 1", got)
	}

	// Edge estimate: author postings thinned by rare's doc overlap,
	// capped by parentRows * fanout.
	if got := c.EdgeCardinality("rare", 4, "author"); !almost(got, 40) {
		t.Errorf("EdgeCardinality(rare, 4, author) = %v, want 40 (200 * 0.2)", got)
	}
	if got := c.EdgeCardinality("rare", 1, "author"); !almost(got, 20) {
		t.Errorf("EdgeCardinality(rare, 1, author) = %v, want 20 (fanout cap)", got)
	}
}

func TestEqual(t *testing.T) {
	a := New()
	a.Tags["x"] = TagStat{Postings: 1}
	b := New()
	b.Tags["x"] = TagStat{Postings: 1}
	if !a.Equal(b) {
		t.Error("Equal must hold for identical catalogs")
	}
	b.Tags["x"] = TagStat{Postings: 2}
	if a.Equal(b) {
		t.Error("Equal must see tag differences")
	}
}
