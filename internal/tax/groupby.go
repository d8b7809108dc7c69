package tax

import (
	"cmp"
	"math"
	"sort"
	"strconv"
	"strings"

	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/xmltree"
)

// GroupBy is the grouping operator of Sec. 3 — the paper's central
// contribution. It splits a collection into subsets of (not necessarily
// disjoint) data trees and represents each subset as an ordered tree:
//
//   - The pattern pt is matched against the collection; each witness
//     tree remembers the source tree it came from.
//   - The grouping basis partitions the witnesses by the values of the
//     named elements (or attributes).
//   - The ordering list orders the members of each group.
//
// Each group becomes one output tree: the root (tag TAX_group_root) has
// a left child (TAX_grouping_basis) holding one child per basis item —
// the matched node, with its subtree when the item is starred — and a
// right child (TAX_group_subroot) whose children are the source trees
// of the group's witnesses in ordering-list order. A source tree with
// several witnesses in the same group appears once per witness, and a
// source tree matching under several basis values appears in several
// groups (multiple authorship ⇒ overlapping groups).
//
// Groups are emitted in order of first appearance in witness order,
// matching Figures 3 and 10. No value-based aggregation is involved:
// grouping is a restructuring operator, orthogonal to aggregation.
func GroupBy(c Collection, pt *pattern.Tree, basis []BasisItem, ordering []OrderItem) Collection {
	witnesses := match.Match(pt, c.Trees)

	type member struct {
		binding match.Binding
		source  *xmltree.Node
		seq     int // witness order, the sort tiebreaker
	}
	type group struct {
		first   match.Binding // supplies the basis children
		members []member
	}
	var keys []string
	groups := map[string]*group{}
	for i, b := range witnesses {
		k := basisKey(b, basis)
		g, ok := groups[k]
		if !ok {
			g = &group{first: b}
			groups[k] = g
			keys = append(keys, k)
		}
		src := b[pt.Root.Label].Root()
		g.members = append(g.members, member{binding: b, source: src, seq: i})
	}

	var out Collection
	for _, k := range keys {
		g := groups[k]
		if len(ordering) > 0 {
			sort.SliceStable(g.members, func(i, j int) bool {
				a, b := g.members[i], g.members[j]
				for _, oi := range ordering {
					av := orderValue(a.binding, oi)
					bv := orderValue(b.binding, oi)
					cmp := compareValues(av, bv)
					if oi.Direction == Descending {
						cmp = -cmp
					}
					if cmp != 0 {
						return cmp < 0
					}
				}
				return a.seq < b.seq
			})
		}

		root := xmltree.E(GroupRootTag)
		basisNode := xmltree.E(GroupingBasisTag)
		for _, bi := range basis {
			bound := g.first[bi.Label]
			if bound == nil {
				continue
			}
			if bi.Star {
				basisNode.Append(bound.Clone())
			} else {
				basisNode.Append(shallowClone(bound))
			}
		}
		subroot := xmltree.E(GroupSubrootTag)
		for _, m := range g.members {
			subroot.Append(m.source.Clone())
		}
		root.Append(basisNode, subroot)
		out.Trees = append(out.Trees, root)
	}
	out.renumber()
	return out
}

// basisKey derives the partition key of a witness: the tuple of basis
// values, NUL-separated.
func basisKey(b match.Binding, basis []BasisItem) string {
	parts := make([]string, len(basis))
	for i, bi := range basis {
		n := b[bi.Label]
		if n == nil {
			continue
		}
		if bi.Attr != "" {
			v, _ := n.Attr(bi.Attr)
			parts[i] = v
		} else {
			parts[i] = n.Content
		}
	}
	return strings.Join(parts, "\x00")
}

// orderValue extracts an ordering-list component's value from a witness.
func orderValue(b match.Binding, oi OrderItem) string {
	n := b[oi.Label]
	if n == nil {
		return ""
	}
	if oi.Attr != "" {
		v, _ := n.Attr(oi.Attr)
		return v
	}
	return n.Content
}

// CompareValues compares two ordering values under one total order:
// the empty value (a missing ordering value) comes first; then the
// values that parse as a number (not NaN), compared numerically; then
// every other value, compared bytewise. It is the comparison the ordering list uses; the physical
// executors share it so every plan orders identically. A total order
// is what makes that hold for mixed values too: a stable sort has one
// result, whatever the sort algorithm or run boundaries.
func CompareValues(a, b string) int { return compareValues(a, b) }

func compareValues(a, b string) int {
	if a == "" || b == "" {
		return strings.Compare(a, b)
	}
	an, aNum := numericValue(a)
	bn, bNum := numericValue(b)
	switch {
	case aNum && bNum:
		return cmp.Compare(an, bn)
	case aNum:
		return -1
	case bNum:
		return 1
	}
	return strings.Compare(a, b)
}

// numericValue parses a value as a number; NaN is not one.
func numericValue(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f)
}
