package storage

// Cardinality statistics are neither stored nor computed: no plan
// decision reads them, so nothing scans the indexes for them.
//
// Files written by earlier versions carry persisted statistics records
// in the catalog tree, under keys with the reserved prefix
// {ff ff ff ff fe}. Document keys are exactly 4 bytes and those are 6+,
// so readers skip them by length (isStatsKey) and nothing rewrites or
// deletes them.

// isStatsKey reports whether a catalog key belongs to the reserved
// statistics key space (document keys are exactly 4 bytes).
func isStatsKey(k []byte) bool { return len(k) != 4 }

// BuildCardStats does nothing and returns a nil error.
//
// Deprecated: statistics are not computed any more. The benchmark
// harness's loadCorpus still calls it; ROADMAP item 2(a) drops that
// call and then deletes this function.
func (db *DB) BuildCardStats(SyncPolicy) (struct{}, error) { return struct{}{}, nil }
