package match

import (
	"timber/internal/pattern"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// openMem streams the in-memory matcher's bindings through the Matcher
// interface, so tests can hold Match to the same face as the database
// matchers. Bindings carry postings synthesized from the nodes' intervals; the
// record locations (RIDs) are zero, since in-memory trees have no
// stored records.
func openMem(pt *pattern.Tree, trees []*xmltree.Node) Matcher {
	labels := pt.Labels()
	m := &memMatcher{out: witnesses{labels: labels, rows: rowSet{width: len(labels)}}}
	m.stats.Matcher = "mem"
	for _, b := range Match(pt, trees) {
		for _, l := range labels {
			m.out.rows.posts = append(m.out.rows.posts, storage.Posting{Interval: b[l].Interval})
		}
	}
	return m
}

type memMatcher struct {
	out   witnesses
	stats DBStats
}

func (m *memMatcher) Next() (DBBinding, bool) {
	b, ok := m.out.next()
	if ok {
		m.stats.Witnesses++
	}
	return b, ok
}

func (m *memMatcher) Stats() *DBStats { return &m.stats }
func (m *memMatcher) Err() error      { return nil }

func (m *memMatcher) Close() error {
	m.out.drop()
	return nil
}
