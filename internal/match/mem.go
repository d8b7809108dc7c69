// Package match implements pattern-tree matching: computing the witness
// trees (tuples of node bindings) of a pattern against XML data.
//
// Two matchers are provided with identical semantics:
//
//   - Match embeds a pattern into in-memory trees by direct traversal.
//     The logical TAX operators (package tax) use it.
//   - MatchKindObs (the whole witness slice) and Open (a streaming
//     Matcher) embed a pattern into a stored database using the tag and
//     value indices to obtain candidate posting lists and single-pass
//     structural joins to connect them, one pattern edge at a time —
//     the strategy of Sec. 5.2 — or the holistic twig join. Bindings
//     come back as node identifiers (postings) without touching node
//     records except where a predicate cannot be answered from an
//     index.
//
// Both return witnesses sorted lexicographically by the bound node IDs
// in pattern pre-order, so results are deterministic and the two
// matchers agree exactly (a property the test suite checks).
package match

import (
	"sort"

	"timber/internal/pattern"
	"timber/internal/xmltree"
)

// Binding maps pattern labels to matched in-memory nodes.
type Binding map[string]*xmltree.Node

// nodeFields adapts an xmltree node to pattern.Fields.
type nodeFields struct{ n *xmltree.Node }

func (f nodeFields) Tag() string                     { return f.n.Tag }
func (f nodeFields) Content() string                 { return f.n.Content }
func (f nodeFields) Attr(name string) (string, bool) { return f.n.Attr(name) }

// Match returns every embedding of the pattern into the given trees.
// The pattern root may bind to any node of any tree (including interior
// nodes); anchoring at tree roots is expressed with predicates such as
// tag=doc_root, exactly as the paper's figures do.
//
// Witnesses are ordered lexicographically by the bound nodes' document
// order, taking pattern labels in pre-order — so for the common case of
// a root-anchored pattern, witness order follows document order of the
// outermost varying binding.
//
// Trees must be numbered (xmltree.Number); ordering and the
// cross-matcher equivalence depend on interval numbers.
func Match(pt *pattern.Tree, trees []*xmltree.Node) []Binding {
	order := preorder(pt.Root)
	var out []Binding
	b := make(Binding, len(order))

	var enumerate func(idx int)
	enumerate = func(idx int) {
		if idx == len(order) {
			cp := make(Binding, len(b))
			for k, v := range b {
				cp[k] = v
			}
			out = append(out, cp)
			return
		}
		pn := order[idx]
		parentData := b[pn.Parent.Label]
		for _, cand := range axisCandidates(parentData, pn.Axis) {
			if !pn.NodeMatches(nodeFields{cand}) {
				continue
			}
			b[pn.Label] = cand
			enumerate(idx + 1)
			delete(b, pn.Label)
		}
	}

	for _, root := range trees {
		root.Walk(func(n *xmltree.Node) bool {
			if pt.Root.NodeMatches(nodeFields{n}) {
				b[pt.Root.Label] = n
				enumerate(1)
				delete(b, pt.Root.Label)
			}
			return true
		})
	}
	SortBindings(pt, out)
	return out
}

// preorder lists the pattern nodes root-first, parents before children.
func preorder(root *pattern.Node) []*pattern.Node {
	var out []*pattern.Node
	var walk func(*pattern.Node)
	walk = func(n *pattern.Node) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// axisCandidates returns dn's children or proper descendants in
// document order.
func axisCandidates(dn *xmltree.Node, axis pattern.Axis) []*xmltree.Node {
	if axis == pattern.Child {
		return dn.Children
	}
	var out []*xmltree.Node
	for _, c := range dn.Children {
		c.Walk(func(m *xmltree.Node) bool {
			out = append(out, m)
			return true
		})
	}
	return out
}

// SortBindings orders witnesses lexicographically by the bound node IDs
// taken in pattern pre-order.
func SortBindings(pt *pattern.Tree, bs []Binding) {
	labels := pt.Labels()
	sort.SliceStable(bs, func(i, j int) bool {
		for _, l := range labels {
			a, b := bs[i][l].Interval.ID(), bs[j][l].Interval.ID()
			if a != b {
				return a.Less(b)
			}
		}
		return false
	})
}
