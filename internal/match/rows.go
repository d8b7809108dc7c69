package match

import (
	"sort"

	"timber/internal/storage"
)

// rowSet is a set of fixed-width posting rows stored flat: row r is
// posts[r*width:(r+1)*width]. Every intermediate and final result of
// the database matchers is one — the binary cascade's join rows, the
// twig matcher's per-leaf path-solution arenas and merge buffers, and
// the witnesses any matcher stages for delivery — so a document's worth
// of rows costs one backing array that the next document reuses, and
// the package has one row comparator.
type rowSet struct {
	width int
	posts []storage.Posting
}

func (rs *rowSet) row(r int) []storage.Posting {
	return rs.posts[r*rs.width : (r+1)*rs.width]
}

func (rs *rowSet) reset() { rs.posts = rs.posts[:0] }

// Len, Less and Swap order rows lexicographically by node identifier,
// column by column — for witness rows, whose columns follow pattern
// pre-order, that is the package's output order.
func (rs *rowSet) Len() int { return len(rs.posts) / rs.width }

func (rs *rowSet) Less(a, b int) bool {
	ra, rb := rs.row(a), rs.row(b)
	for i := range ra {
		if x, y := ra[i].ID(), rb[i].ID(); x != y {
			return x.Less(y)
		}
	}
	return false
}

func (rs *rowSet) Swap(a, b int) {
	ra, rb := rs.row(a), rs.row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// sort puts the rows in comparator order. Rows are distinct, so an
// unstable sort is deterministic; sets that arrive ordered (the common
// case for path solutions) cost one linear check.
func (rs *rowSet) sort() {
	if !sort.IsSorted(rs) {
		sort.Sort(rs)
	}
}

// bindRow writes one witness row into dst under the pattern's labels —
// the one place a row becomes a DBBinding.
func bindRow(dst DBBinding, labels []string, row []storage.Posting) {
	for i, l := range labels {
		dst[l] = row[i]
	}
}

// bindings returns one retained binding per row.
func (rs *rowSet) bindings(labels []string) []DBBinding {
	out := make([]DBBinding, rs.Len())
	for r := range out {
		out[r] = make(DBBinding, len(labels))
		bindRow(out[r], labels, rs.row(r))
	}
	return out
}

// witnesses stages one sorted set of full-width rows for delivery
// through Matcher.Next. Every binding is handed out in the same map,
// overwritten by the following call.
type witnesses struct {
	labels []string // pattern labels in pre-order, one per column
	rows   rowSet
	pos    int
	cur    DBBinding
}

func (w *witnesses) next() (DBBinding, bool) {
	if w.pos >= w.rows.Len() {
		return nil, false
	}
	if w.cur == nil {
		w.cur = make(DBBinding, len(w.labels))
	}
	bindRow(w.cur, w.labels, w.rows.row(w.pos))
	w.pos++
	return w.cur, true
}

// stage replaces the staged rows and rewinds to the first.
func (w *witnesses) stage(rows rowSet) {
	w.rows = rows
	w.pos = 0
}

// drop forgets the staged rows, leaving nothing to deliver.
func (w *witnesses) drop() { w.stage(rowSet{width: w.rows.width}) }
