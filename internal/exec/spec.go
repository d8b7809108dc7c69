// Package exec implements the physical evaluation plans of Sec. 6 over
// the storage layer: the "direct" execution of the XQuery as written
// (the naive plan with every intermediate collection materialized
// through storage, plus the batch variant the experiment section
// describes: index identification and a hash join), and the TIMBER
// groupby plan with identifier-only processing and deferred value
// population (Sec. 5.3).
//
// The executors cover the query family the paper evaluates — group a
// member element (article) by a correlated path value (author, or
// author/institution), returning either the member's value path
// (titles) or its count. The Spec describing a concrete query is
// derived from the rewritten logical plan, so the full pipeline is:
// query text → naive plan (plan.Translate) → GROUPBY plan
// (opt.Rewrite) → Spec (SpecFromPlan) → physical execution here.
// Logical evaluation (plan.Eval) is the reference semantics the
// integration tests compare against.
package exec

import (
	"fmt"

	"timber/internal/pattern"
	"timber/internal/plan"
	"timber/internal/tax"
)

// Mode selects the query output shape.
type Mode int

const (
	// Titles returns, per group, the member's value-path contents
	// (Query 1 / Query 2).
	Titles Mode = iota
	// Count returns, per group, the number of value-path matches (the
	// Sec. 6 count variant).
	Count
)

func (m Mode) String() string {
	if m == Count {
		return "count"
	}
	return "titles"
}

// Spec is the physical description of one grouping query.
type Spec struct {
	// MemberTag is the grouped element (article).
	MemberTag string
	// JoinPath leads from the member to the grouping value (author, or
	// author/institution); steps may be child (/) or descendant (//).
	JoinPath Path
	// ValuePath leads from the member to the returned values (title).
	ValuePath Path
	// OutTag is the result element name (authorpubs).
	OutTag string
	// Mode selects titles or count output.
	Mode Mode
	// OrderPath, when non-nil, orders each group's members by the first
	// value at this member-relative path (the GROUPBY ordering list);
	// OrderDesc flips the direction. Members without a match keep their
	// document-order positions.
	OrderPath Path
	OrderDesc bool
	// Strategy selects the physical plan Run dispatches to. The zero
	// value is StrategyAuto, which runs the groupby plan (the engine
	// falls back to the physical plan when the rewrite did not apply). Run-time knobs (parallelism, tracing,
	// cancellation) are NOT part of the Spec; they travel in Options
	// so one cached Spec serves many differently-configured runs.
	Strategy Strategy
}

// BasisTag returns the tag of the grouping-value element.
func (s Spec) BasisTag() string { return s.JoinPath.LastTag() }

func (s Spec) String() string {
	return fmt.Sprintf("group %s by %v -> %s(%v) as <%s>", s.MemberTag, s.JoinPath, s.Mode, s.ValuePath, s.OutTag)
}

// SpecFromPlan derives the physical spec from a rewritten (GROUPBY)
// plan produced by opt.Rewrite. It fails on plans outside the supported
// family.
func SpecFromPlan(op plan.Op) (Spec, error) {
	st, ok := op.(*plan.Stitch)
	if !ok {
		return Spec{}, fmt.Errorf("exec: expected a stitched plan, got %T", op)
	}
	var spec Spec
	spec.OutTag = st.Tag
	var gb *plan.GroupBy
	mode := Titles
	var valuePat *pattern.Tree
	for _, p := range st.Parts {
		cur := p.Op
		// Walk this part's chain looking for GroupBy / Aggregate.
		for cur != nil {
			switch o := cur.(type) {
			case *plan.Aggregate:
				mode = Count
				valuePat = o.Pattern
			case *plan.ProjectPerTree:
				if root := o.Pattern.Root.TagConstraint(); root != "" && valuePat == nil {
					// Candidate member/value projection; confirmed below.
					if hasSubrootChild(o.Pattern) {
						valuePat = o.Pattern
					}
				}
			case *plan.GroupBy:
				if gb == nil {
					gb = o
				}
			}
			ins := cur.Inputs()
			if len(ins) == 0 {
				break
			}
			cur = ins[0]
		}
	}
	if gb == nil {
		return Spec{}, fmt.Errorf("exec: plan has no GroupBy (run opt.Rewrite first)")
	}
	spec.Mode = mode

	// Member tag and join path from the GroupBy pattern (member ->
	// ... -> basis); an ORDER BY extension appears as a second branch
	// under the root, referenced by the ordering list.
	spec.MemberTag = gb.Pattern.Root.TagConstraint()
	if spec.MemberTag == "" {
		return Spec{}, fmt.Errorf("exec: groupby pattern root lacks a tag constraint")
	}
	for n := gb.Pattern.Root; len(n.Children) > 0; {
		c := n.Children[0]
		tag := c.TagConstraint()
		if tag == "" {
			return Spec{}, fmt.Errorf("exec: groupby pattern node %s lacks a tag constraint", c.Label)
		}
		spec.JoinPath = append(spec.JoinPath, PathStep{Tag: tag, Descendant: c.Axis == pattern.Descendant})
		n = c
	}
	if len(spec.JoinPath) == 0 {
		return Spec{}, fmt.Errorf("exec: groupby pattern has no join path")
	}
	if len(gb.Ordering) > 0 {
		if len(gb.Pattern.Root.Children) < 2 {
			return Spec{}, fmt.Errorf("exec: ordering list without an order branch in the groupby pattern")
		}
		for n := gb.Pattern.Root.Children[1]; ; {
			tag := n.TagConstraint()
			if tag == "" {
				return Spec{}, fmt.Errorf("exec: order path node %s lacks a tag constraint", n.Label)
			}
			spec.OrderPath = append(spec.OrderPath, PathStep{Tag: tag, Descendant: n.Axis == pattern.Descendant})
			if len(n.Children) == 0 {
				break
			}
			n = n.Children[0]
		}
		spec.OrderDesc = gb.Ordering[0].Direction == tax.Descending
	}

	// Value path from the member projection pattern:
	// group_root / subroot / member / <value path>.
	if valuePat == nil {
		return Spec{}, fmt.Errorf("exec: plan lacks a member value projection")
	}
	member := findTag(valuePat.Root, spec.MemberTag)
	if member == nil {
		return Spec{}, fmt.Errorf("exec: value projection lacks member %q", spec.MemberTag)
	}
	for n := member; len(n.Children) > 0; {
		c := n.Children[0]
		tag := c.TagConstraint()
		if tag == "" {
			return Spec{}, fmt.Errorf("exec: value path node %s lacks a tag constraint", c.Label)
		}
		spec.ValuePath = append(spec.ValuePath, PathStep{Tag: tag, Descendant: c.Axis == pattern.Descendant})
		n = c
	}
	if len(spec.ValuePath) == 0 {
		return Spec{}, fmt.Errorf("exec: empty value path")
	}
	return spec, nil
}

func hasSubrootChild(pt *pattern.Tree) bool {
	for _, c := range pt.Root.Children {
		if c.TagConstraint() == tax.GroupSubrootTag {
			return true
		}
	}
	return false
}

func findTag(n *pattern.Node, tag string) *pattern.Node {
	if n.TagConstraint() == tag {
		return n
	}
	for _, c := range n.Children {
		if f := findTag(c, tag); f != nil {
			return f
		}
	}
	return nil
}
