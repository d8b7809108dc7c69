package exec

import (
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/tax"
	"timber/internal/xmltree"
)

// LoadCollection materializes every document of one snapshot of the
// database as an in-memory collection — the input the logical algebra
// operates on.
func LoadCollection(db *storage.DB) (tax.Collection, error) {
	sn := db.Snapshot()
	defer sn.Close()
	return loadCollection(sn)
}

func loadCollection(db *storage.Snapshot) (tax.Collection, error) {
	var trees []*xmltree.Node
	for _, d := range db.Documents() {
		root, err := db.GetSubtree(xmltree.NodeID{Doc: d.ID, Start: d.RootStart})
		if err != nil {
			return tax.Collection{}, err
		}
		trees = append(trees, root)
	}
	return tax.NewCollection(trees...), nil
}

// ExecLogical evaluates a logical plan against the database by loading
// the documents and running the reference in-memory semantics. It is
// the correctness oracle for the physical executors (and was how
// queries would run with no physical optimization at all — every
// experiment's result sets are checked against it at small scale).
func ExecLogical(db *storage.DB, op plan.Op) (tax.Collection, error) {
	base, err := LoadCollection(db)
	if err != nil {
		return tax.Collection{}, err
	}
	return plan.Eval(base, op)
}
