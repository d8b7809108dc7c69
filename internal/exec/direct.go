package exec

import (
	"strconv"

	"timber/internal/obs"
	"timber/internal/storage"
	"timber/internal/tax"
	"timber/internal/xmltree"
)

// The two direct plans of Sec. 6 — the query executed as written,
// without the GROUPBY rewrite. Both start from the same outer scan
// (every basis value looked up, duplicates eliminated by content) and
// the same hash-join build over the join path; they differ in how a
// group's members reach the output.

// DirectMaterialized is the physical form of the Sec. 4.1 naive plan —
// the paper's "direct" evaluation (Sec. 6): the query is executed as
// written, operator by operator, with every intermediate collection
// materialized through the storage engine:
//
//  1. The outer selection/projection produces the Figure 7 collection
//     (one doc_root/author tree per author node, values fetched), which
//     is written to temporary pages and read back; duplicate
//     elimination by content follows, spilled again.
//  2. The left outer join produces the Figure 8 collection: one
//     TAX_prod_root tree per distinct author holding the author tree
//     plus a fully materialized copy of every matching article — a
//     two-author article is replicated under both its authors. This is
//     the dominant cost: each membership materializes the article's
//     whole subtree, and the trees are spilled.
//  3. The RETURN arguments are evaluated against the materialized
//     product trees (titles are already present in the replicas) and
//     stitched into the output.
//
// Output order matches the logical naive plan: distinct values in
// first-occurrence order, members in document order.
func directMaterialized(db *storage.Snapshot, spec Spec, o Options) (*Result, error) {
	res := &Result{}
	basisTag := spec.BasisTag()
	sp := o.trace("exec: direct materialized")
	defer sp.End()

	// Step 1: outer selection + projection (Figure 7), materialized.
	outerSp := sp.Child("materialize: outer selection")
	vals, err := outerValues(db, basisTag, o, res, outerSp)
	if err != nil {
		return nil, err
	}
	outer := make([]*xmltree.Node, len(vals))
	for i, v := range vals {
		outer[i] = xmltree.E("doc_root", xmltree.Elem(basisTag, v))
	}
	outer, err = db.SpillTrees(outer)
	if err != nil {
		return nil, err
	}
	// Duplicate elimination based on the bound variable's content.
	var distinct []*xmltree.Node
	seen := map[string]bool{}
	for _, tr := range outer {
		v := tr.Children[0].Content
		if seen[v] {
			continue
		}
		seen[v] = true
		distinct = append(distinct, tr)
	}
	distinct, err = db.SpillTrees(distinct)
	if err != nil {
		return nil, err
	}
	outerSp.Add("distinct", int64(len(distinct)))
	outerSp.End()

	// Step 2: the left outer join (Figure 8). Identify member/value
	// pairs from the indices, look up the join values, then build one
	// product tree per outer tree with fully materialized member
	// replicas.
	_, pairs, err := joinPathPairs(db, spec, o, res, sp)
	if err != nil {
		return nil, err
	}
	byValue, err := membersByValue(db, pairs, o, res)
	if err != nil {
		return nil, err
	}

	prodSp := sp.Child("materialize: product trees")
	lookupsBefore := res.Stats.ValueLookups
	prods := make([]*xmltree.Node, 0, len(distinct))
	for _, tr := range distinct {
		// The product-tree loop is the dominant record-fetch phase of
		// this plan; probe once per outer tree.
		if err := o.err(); err != nil {
			return nil, err
		}
		v := tr.Children[0].Content
		prod := xmltree.E(tax.ProdRootTag, tr.Clone())
		// "Duplicate elimination based on articles" is structural in
		// the naive algebra (plan.DedupChildren): two char-identical
		// replicas collapse even when they materialize distinct nodes.
		replicaSeen := map[string]bool{}
		for _, m := range byValue[v] {
			replica, err := db.GetSubtree(m.ID())
			if err != nil {
				return nil, err
			}
			res.Stats.LocatorProbes++
			res.Stats.ValueLookups += replica.Size()
			if k := tax.TreeKey(replica); replicaSeen[k] {
				continue
			} else {
				replicaSeen[k] = true
			}
			prod.Append(replica)
		}
		prods = append(prods, prod)
	}
	prods, err = db.SpillTrees(prods)
	if err != nil {
		return nil, err
	}
	prodSp.Add("product_trees", int64(len(prods)))
	prodSp.Add("value_lookups", int64(res.Stats.ValueLookups-lookupsBefore))
	prodSp.Add("locator_probes", int64(res.Stats.LocatorProbes))
	prodSp.End()

	// Step 3: RETURN arguments against the materialized product trees,
	// stitched under the output tag. An ORDER BY sorts each product
	// tree's member replicas first.
	retSp := sp.Child("eval: RETURN arguments")
	valueTag := spec.ValuePath.LastTag()
	for _, prod := range prods {
		if spec.OrderPath != nil && len(prod.Children) > 1 {
			members := prod.Children[1:]
			sortTreesByPathInPlace(members, spec.OrderPath, spec.OrderDesc)
		}
		out := xmltree.E(spec.OutTag, xmltree.Elem(basisTag, prod.Children[0].Children[0].Content))
		total := 0
		for _, child := range prod.Children[1:] {
			for _, v := range valuesAtPath(child, spec.ValuePath) {
				if spec.Mode == Titles {
					out.Append(xmltree.Elem(valueTag, v))
				} else {
					total++
				}
			}
		}
		if spec.Mode == Count {
			out.Append(xmltree.Elem("count", strconv.Itoa(total)))
		}
		res.Trees = append(res.Trees, out)
	}
	retSp.Add("groups", int64(len(res.Trees)))
	retSp.End()
	if err := finishResult(db, res, sp); err != nil {
		return nil, err
	}
	return res, nil
}

// DirectBatch is the batch variant Sec. 6's prose describes: identify
// the outer nodes and the member/value pairs with indices, eliminate
// duplicates in the former by looking up values, perform the requisite
// (hash) join with the latter, then output per distinct value. It does
// the same data-value look-ups twice (dedupe pass and join pass) but
// never materializes a member subtree, so it sits between the
// materialized direct plan and the groupby plan.
func directBatch(db *storage.Snapshot, spec Spec, o Options) (*Result, error) {
	res := &Result{}
	basisTag := spec.BasisTag()
	sp := o.trace("exec: direct batch")
	defer sp.End()

	// Outer values, first-occurrence order.
	outerSp := sp.Child("scan: distinct outer values")
	vals, err := outerValues(db, basisTag, o, res, outerSp)
	if err != nil {
		return nil, err
	}
	var distinct []string
	seen := map[string]bool{}
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	outerSp.Add("distinct", int64(len(distinct)))
	outerSp.End()

	// Member/value-node pairs, index-only; then one value look-up per
	// pair to build the hash join table.
	members, pairs, err := joinPathPairs(db, spec, o, res, sp)
	if err != nil {
		return nil, err
	}
	hashSp := sp.Child("hash join: build")
	byValue, err := membersByValue(db, pairs, o, res)
	if err != nil {
		return nil, err
	}
	hashSp.Add("value_lookups", int64(len(pairs)))
	hashSp.End()

	// Value path, index-only.
	valSp := sp.Child("sjoin: value path")
	valuePairs, err := pathPairs(o.Ctx, db, members, spec.ValuePath, o.workers(), valSp)
	valSp.End()
	if err != nil {
		return nil, err
	}
	res.Stats.IndexPostings += len(valuePairs)
	valuesOf := groupPairsByMember(valuePairs)

	if spec.OrderPath != nil {
		ov, err := orderValues(o.Ctx, db, members, spec.OrderPath, res, o.workers(), sp)
		if err != nil {
			return nil, err
		}
		for _, ms := range byValue {
			sortPostingsByOrder(ms, ov, spec.OrderDesc)
		}
	}

	matSp := sp.Child("materialize: groups")
	lookupsBefore := res.Stats.ValueLookups
	for _, v := range distinct {
		out := xmltree.E(spec.OutTag, xmltree.Elem(basisTag, v))
		switch spec.Mode {
		case Titles:
			for _, m := range byValue[v] {
				for _, tp := range valuesOf[m.ID()] {
					content, err := db.Content(tp)
					if err != nil {
						return nil, err
					}
					res.Stats.ValueLookups++
					out.Append(xmltree.Elem(spec.ValuePath.LastTag(), content))
				}
			}
		case Count:
			total := 0
			for _, m := range byValue[v] {
				total += len(valuesOf[m.ID()])
			}
			out.Append(xmltree.Elem("count", strconv.Itoa(total)))
		}
		res.Trees = append(res.Trees, out)
	}
	matSp.Add("groups", int64(len(res.Trees)))
	matSp.Add("value_lookups", int64(res.Stats.ValueLookups-lookupsBefore))
	matSp.End()
	if err := finishResult(db, res, sp); err != nil {
		return nil, err
	}
	return res, nil
}

// outerValues is the outer FOR over distinct-values(//tag) before
// duplicate elimination: every basis posting from the tag index and one
// value look-up each, in document order.
func outerValues(db *storage.Snapshot, tag string, o Options, res *Result, sp *obs.Span) ([]string, error) {
	posts, err := storage.Drain(db.TagStream(tag))
	if err != nil {
		return nil, err
	}
	res.Stats.IndexPostings += len(posts)
	vals := make([]string, len(posts))
	for i, p := range posts {
		if err := o.err(); err != nil {
			return nil, err
		}
		if vals[i], err = db.Content(p); err != nil {
			return nil, err
		}
	}
	res.Stats.ValueLookups += len(posts)
	sp.Add("postings", int64(len(posts)))
	sp.Add("value_lookups", int64(len(posts)))
	return vals, nil
}

// joinPathPairs identifies, index-only, every (member, join-value node)
// pair of the join path, under an "sjoin: join path" span. The member
// postings are returned too, for the value and order paths.
func joinPathPairs(db *storage.Snapshot, spec Spec, o Options, res *Result, sp *obs.Span) ([]storage.Posting, []pair, error) {
	joinSp := sp.Child("sjoin: join path")
	defer joinSp.End()
	members, err := storage.Drain(db.TagStream(spec.MemberTag))
	if err != nil {
		return nil, nil, err
	}
	res.Stats.IndexPostings += len(members)
	joinSp.Add("postings", int64(len(members)))
	pairs, err := pathPairs(o.Ctx, db, members, spec.JoinPath, o.workers(), joinSp)
	if err != nil {
		return nil, nil, err
	}
	res.Stats.IndexPostings += len(pairs)
	return members, pairs, nil
}

// membersByValue is the hash-join build: one value look-up per join
// pair, grouping the members by join value — each member once per
// value, in pair (document) order.
func membersByValue(db *storage.Snapshot, pairs []pair, o Options, res *Result) (map[string][]storage.Posting, error) {
	type key struct {
		value  string
		member xmltree.NodeID
	}
	byValue := map[string][]storage.Posting{}
	seen := map[key]bool{}
	for _, w := range pairs {
		if err := o.err(); err != nil {
			return nil, err
		}
		v, err := db.Content(w.leaf)
		if err != nil {
			return nil, err
		}
		k := key{v, w.member.ID()}
		if seen[k] {
			continue // duplicate elimination based on the members
		}
		seen[k] = true
		byValue[v] = append(byValue[v], w.member)
	}
	res.Stats.ValueLookups += len(pairs)
	return byValue, nil
}
