package exec

import (
	"timber/internal/obs"
	"timber/internal/storage"
)

// finishResult materializes the output collection through the storage
// engine. TIMBER query results are stored trees, so every plan pays to
// write and re-read its answer; this shared cost is what compresses the
// titles experiment's plan gap relative to the count experiment's (the
// paper's E1 ratio is 1.8x against E2's 6.7x largely because the bulky
// titles output burdens both plans equally, while the count output is
// negligible).
//
// The cost is paid per page, as in the paper's buffer-pool model:
// SpillTrees writes the answer to scratch pages allocated for this run
// (one pin per page filled), reads each page back once, rebuilds the
// trees from one node slab and frees the pages, so concurrent runs
// never share a spill region.
func finishResult(db *storage.Snapshot, res *Result, sp *obs.Span) error {
	finSp := sp.Child("spill: result trees")
	defer finSp.End()
	trees, err := db.SpillTrees(res.Trees)
	if err != nil {
		return err
	}
	res.Trees = trees
	res.Stats.Groups = len(trees)
	finSp.Add("trees", int64(len(trees)))
	return nil
}
