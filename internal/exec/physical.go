package exec

import (
	"fmt"

	"timber/internal/match"
	"timber/internal/par"
	"timber/internal/pattern"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/tax"
	"timber/internal/xmltree"
)

// ExecPhysical evaluates ANY logical plan against the database with
// index-accelerated leaves: every selection applied directly to the
// database is answered by the index matcher (Sec. 5.2) and materializes
// only its witnesses — the bound nodes, plus full subtrees for adorned
// labels — instead of loading the documents wholesale. The remaining
// operators then run with the reference semantics over the (much
// smaller) intermediate collections.
//
// Plans that consume the database other than through a leaf selection
// (the naive plan's join does) fall back to materializing the documents
// for that leaf, which is correct but unindexed; the specialized
// Spec executors in this package (dispatched through Run) are the
// measured physical plans for the paper's query family, while
// ExecPhysical is the general-purpose path that keeps arbitrary
// translatable queries off the full-scan route.
//
// Options carries the run-time knobs: o.Parallelism bounds the
// index-matching and witness-materialization pools (results are
// identical for any setting), o.Tracer records per-phase spans (each
// indexed leaf selection gets a pattern-match span and a witness-
// materialization span, the residual logical evaluation its own), and
// o.Ctx cancels the run between leaves and inside the match/
// materialization pools.
func ExecPhysical(db storage.Reader, op plan.Op, o Options) (tax.Collection, error) {
	db, release := storage.Pin(db)
	defer release()
	rewritten, err := substituteLeaves(db, op, o)
	if err != nil {
		return tax.Collection{}, err
	}
	if err := o.err(); err != nil {
		return tax.Collection{}, err
	}
	evalSp := o.Tracer.Start("eval: logical operators")
	defer evalSp.End()
	return plan.Eval(tax.Collection{}, rewritten)
}

// substituteLeaves replaces Select-over-DBScan nodes with Literal
// collections computed from the indices, and any remaining DBScan with
// the materialized documents. Shared sub-plans (the rewrite's common
// GroupBy) stay shared: substitution is memoized per input operator.
func substituteLeaves(db storage.Reader, op plan.Op, o Options) (plan.Op, error) {
	return (&substituter{db: db, o: o, memo: map[plan.Op]plan.Op{}}).sub(op)
}

type substituter struct {
	db   storage.Reader
	o    Options
	memo map[plan.Op]plan.Op
}

func (s *substituter) sub(op plan.Op) (plan.Op, error) {
	if out, ok := s.memo[op]; ok {
		return out, nil
	}
	out, err := s.subUncached(op)
	if err != nil {
		return nil, err
	}
	s.memo[op] = out
	return out, nil
}

func (s *substituter) subUncached(op plan.Op) (plan.Op, error) {
	db := s.db
	switch o := op.(type) {
	case *plan.Select:
		if _, ok := o.In.(*plan.DBScan); ok {
			c, err := physSelect(db, o.Pattern, o.SL, s.o)
			if err != nil {
				return nil, err
			}
			return &plan.Literal{C: c}, nil
		}
		in, err := s.sub(o.In)
		if err != nil {
			return nil, err
		}
		return &plan.Select{In: in, Pattern: o.Pattern, SL: o.SL}, nil
	case *plan.DBScan:
		scanSp := s.o.Tracer.Start("scan: full database")
		c, err := LoadCollection(db)
		scanSp.End()
		if err != nil {
			return nil, err
		}
		return &plan.Literal{C: c}, nil
	case *plan.Project:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.Project{In: in, Pattern: o.Pattern, PL: o.PL}
		})
	case *plan.ProjectPerTree:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.ProjectPerTree{In: in, Pattern: o.Pattern, PL: o.PL}
		})
	case *plan.DupElimContent:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.DupElimContent{In: in, Pattern: o.Pattern, Label: o.Label}
		})
	case *plan.DedupChildren:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.DedupChildren{In: in}
		})
	case *plan.SortChildrenByPath:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.SortChildrenByPath{In: in, Path: o.Path, Desc: o.Desc}
		})
	case *plan.GroupBy:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.GroupBy{In: in, Pattern: o.Pattern, Basis: o.Basis, Ordering: o.Ordering}
		})
	case *plan.Aggregate:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.Aggregate{In: in, Pattern: o.Pattern, Spec: o.Spec}
		})
	case *plan.Rename:
		return s.rebuild1(o.In, func(in plan.Op) plan.Op {
			return &plan.Rename{In: in, NewTag: o.NewTag}
		})
	case *plan.LeftOuterJoin:
		left, err := s.sub(o.Left)
		if err != nil {
			return nil, err
		}
		right, err := s.sub(o.Right)
		if err != nil {
			return nil, err
		}
		return &plan.LeftOuterJoin{Left: left, Right: right, Spec: o.Spec}, nil
	case *plan.Stitch:
		out := &plan.Stitch{Tag: o.Tag}
		for _, p := range o.Parts {
			sub, err := s.sub(p.Op)
			if err != nil {
				return nil, err
			}
			out.Parts = append(out.Parts, plan.StitchPart{Op: sub, Splice: p.Splice})
		}
		return out, nil
	case *plan.Literal:
		return o, nil
	default:
		return nil, fmt.Errorf("exec: physical evaluation of unknown operator %T", op)
	}
}

func (s *substituter) rebuild1(in plan.Op, mk func(plan.Op) plan.Op) (plan.Op, error) {
	sub, err := s.sub(in)
	if err != nil {
		return nil, err
	}
	return mk(sub), nil
}

// physSelect evaluates a selection against the stored database: the
// index matcher computes the witnesses as node identifiers, and only
// the witness nodes are materialized (adorned labels with their whole
// subtrees). Witness materialization is the record-fetch-heavy phase,
// so each binding's tree is built by whichever worker claims its slot;
// slot order preserves the sequential output exactly.
func physSelect(db storage.Reader, pt *pattern.Tree, sl []tax.Item, o Options) (tax.Collection, error) {
	starred := make(map[string]bool, len(sl))
	for _, it := range sl {
		starred[it.Label] = true
	}
	matchSp := o.Tracer.Start("match: pattern")
	bindings, _, err := match.MatchKindObs(o.Ctx, db, pt, o.Matcher, o.Parallelism, matchSp)
	matchSp.End()
	if err != nil {
		return tax.Collection{}, err
	}
	var out tax.Collection
	if len(bindings) > 0 {
		matSp := o.Tracer.Start("materialize: witnesses")
		trees := make([]*xmltree.Node, len(bindings))
		if err := par.Do(o.Ctx, len(bindings), o.workers(), func(i int) error {
			tree, err := materializeWitness(db, pt.Root, bindings[i], starred)
			if err != nil {
				return err
			}
			trees[i] = tree
			return nil
		}); err != nil {
			matSp.End()
			return tax.Collection{}, err
		}
		out.Trees = trees
		matSp.Add("witnesses", int64(len(trees)))
		matSp.End()
	}
	out.Renumber()
	return out, nil
}

// materializeWitness builds the witness tree for one binding, fetching
// exactly the needed records.
func materializeWitness(db storage.Reader, pn *pattern.Node, b match.DBBinding, starred map[string]bool) (*xmltree.Node, error) {
	post := b[pn.Label]
	if starred[pn.Label] {
		return db.GetSubtree(post.ID())
	}
	rec, err := db.GetNodeAt(post.RID)
	if err != nil {
		return nil, err
	}
	n := &xmltree.Node{Tag: rec.Tag, Content: rec.Content, Attrs: rec.Attrs, Interval: rec.Interval}
	for _, pc := range pn.Children {
		child, err := materializeWitness(db, pc, b, starred)
		if err != nil {
			return nil, err
		}
		n.Append(child)
	}
	return n, nil
}
