package exec

import (
	"context"
	"sort"

	"timber/internal/obs"
	"timber/internal/sjoin"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// pair binds a member element to one match of a relative path inside
// it. Pattern matching yields pairs "in terms of node identifiers,
// obtained from the index look up" (Sec. 5.2): both postings come from
// the tag index and no node record is touched.
type pair struct {
	member storage.Posting
	leaf   storage.Posting
}

// pathPairs computes, index-only, all (member, leaf) pairs where leaf
// is reached from a member element by the given child-step path. Pairs
// are in document order of (member, leaf). The ancestor side of each
// step join uses the previous step's distinct leaves, so the whole path
// costs one tag-index scan plus one single-pass structural join per
// step. The joins partition by document and run on up to workers
// goroutines; the output is identical for any worker count.
//
// When sp is non-nil, each step becomes a child span carrying the
// step's posting scan, join input/output and surviving-pair counts.
// Steps run sequentially on the calling goroutine, so the spans nest
// without synchronization. A non-nil ctx cancels between steps and
// inside each step's per-document join pool.
func pathPairs(ctx context.Context, db *storage.Snapshot, members []storage.Posting, path Path, workers int, sp *obs.Span) ([]pair, error) {
	cur := make([]pair, len(members))
	for i, m := range members {
		cur[i] = pair{member: m, leaf: m}
	}
	for _, st := range path {
		stepSp := sp.Child("sjoin: step " + st.Tag)
		next, err := storage.Drain(db.TagStream(st.Tag))
		if err != nil {
			stepSp.End()
			return nil, err
		}
		stepSp.Add("postings", int64(len(next)))
		axis := sjoin.ParentChild
		if st.Descendant {
			axis = sjoin.AncestorDescendant
		}
		var jm *sjoin.Metrics
		if stepSp != nil {
			jm = &sjoin.Metrics{}
		}
		cur, err = stepJoin(ctx, cur, next, axis, workers, jm)
		if err != nil {
			stepSp.End()
			return nil, err
		}
		if jm != nil {
			stepSp.Add("join_inputs", jm.Ancestors.Load()+jm.Descendants.Load())
			stepSp.Add("join_pairs", jm.Pairs.Load())
		}
		stepSp.Add("pairs", int64(len(cur)))
		stepSp.End()
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return cur, nil
}

// stepJoin extends each pair's leaf by one structural step into the
// candidate postings.
func stepJoin(ctx context.Context, cur []pair, cands []storage.Posting, axis sjoin.Axis, workers int, jm *sjoin.Metrics) ([]pair, error) {
	// Distinct, sorted current leaves form the ancestor list.
	leaves := make([]storage.Posting, 0, len(cur))
	seen := map[xmltree.NodeID]bool{}
	for _, p := range cur {
		id := p.leaf.ID()
		if !seen[id] {
			seen[id] = true
			leaves = append(leaves, p.leaf)
		}
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].ID().Less(leaves[j].ID()) })

	aIvs := make([]xmltree.Interval, len(leaves))
	for i, l := range leaves {
		aIvs[i] = l.Interval
	}
	dIvs := make([]xmltree.Interval, len(cands))
	for i, c := range cands {
		dIvs[i] = c.Interval
	}
	joined, err := sjoin.StackTreeParM(ctx, aIvs, dIvs, axis, workers, jm)
	if err != nil {
		return nil, err
	}

	children := map[xmltree.NodeID][]storage.Posting{}
	for _, pr := range joined {
		id := leaves[pr.A].ID()
		children[id] = append(children[id], cands[pr.D])
	}
	var out []pair
	for _, p := range cur {
		for _, c := range children[p.leaf.ID()] {
			out = append(out, pair{member: p.member, leaf: c})
		}
	}
	return out, nil
}

// groupPairsByMember turns pairs into a member-ID-keyed multimap,
// preserving leaf document order per member.
func groupPairsByMember(pairs []pair) map[xmltree.NodeID][]storage.Posting {
	m := map[xmltree.NodeID][]storage.Posting{}
	for _, p := range pairs {
		m[p.member.ID()] = append(m[p.member.ID()], p.leaf)
	}
	return m
}
