package exec

import (
	"timber/internal/storage"
)

// noRank marks a grouping-basis posting the value-range scan did not
// cover.
const noRank = ^uint32(0)

// rankIter is the grouping-value projection of the fragment pipeline —
// the one early population Sec. 5.3 allows. Each input row's Aux is a
// grouping-basis posting, and the row leaves with Key set to that
// value's rank. A posting the exchange's value-range scan covered
// carries its rank in the fragment's rank window (found by binary
// search on start), so the look-up reads no heap page. A posting the
// scan did not cover — empty content, content over the value index's
// length bound, or no value index at all — is populated from the heap
// per batch through ContentsBatch, and gets a provisional rank above
// the scanned ones: scanned plus its value's index in the fragment's
// fallback dictionary. The exchange merges those values into the rank
// space after its barrier. Rows pass through otherwise unchanged.
type rankIter struct {
	child Iterator
	db    storage.Reader
	// basis is the fragment's grouping-basis candidate window (start
	// order); ranks is parallel to it, nil when the scan covered none.
	basis   []storage.Posting
	ranks   []uint32
	scanned uint32
	counts  *opCounts

	opened bool
	hint   int
	// heap fallback: fallback[i] is the value of provisional rank
	// scanned+i; lookups counts the heap reads.
	fallback []string
	dict     map[string]uint32
	lookups  int
	idx      []int
	ps       []storage.Posting
	vals     []string
}

func newRank(child Iterator, db storage.Reader, basis []storage.Posting, ranks []uint32, scanned int, counts *opCounts) *rankIter {
	return &rankIter{child: child, db: db, basis: basis, ranks: ranks, scanned: uint32(scanned), counts: counts}
}

func (p *rankIter) Open() error {
	if p.opened {
		return nil
	}
	p.opened = true
	return p.child.Open()
}

// rankOf returns the scanned rank of a basis posting, or noRank. Rows
// usually arrive in start order, so the posting after the previous
// hit is tried before a binary search.
func (p *rankIter) rankOf(a storage.Posting) uint32 {
	if p.ranks == nil {
		return noRank
	}
	st := a.Interval.Start
	k := p.hint
	if k >= len(p.basis) || p.basis[k].Interval.Start != st {
		k = postingIndex(p.basis, st)
		if k < 0 {
			return noRank
		}
	}
	p.hint = k + 1
	return p.ranks[k]
}

func (p *rankIter) Next(b *Batch) error {
	if err := p.child.Next(b); err != nil {
		return err
	}
	if len(b.Rows) == 0 {
		return nil
	}
	p.idx, p.ps = p.idx[:0], p.ps[:0]
	for i := range b.Rows {
		r := p.rankOf(b.Rows[i].Aux)
		if r == noRank {
			p.idx = append(p.idx, i)
			p.ps = append(p.ps, b.Rows[i].Aux)
		}
		b.Rows[i].Key = r
	}
	if len(p.ps) > 0 {
		if cap(p.vals) < len(p.ps) {
			p.vals = make([]string, len(p.ps))
		}
		p.vals = p.vals[:len(p.ps)]
		if err := p.db.ContentsBatch(p.ps, p.vals); err != nil {
			return err
		}
		if p.dict == nil {
			p.dict = map[string]uint32{}
		}
		for j, i := range p.idx {
			v := p.vals[j]
			id, ok := p.dict[v]
			if !ok {
				id = p.scanned + uint32(len(p.fallback))
				p.dict[v] = id
				p.fallback = append(p.fallback, v)
			}
			b.Rows[i].Key = id
		}
		p.lookups += len(p.ps)
	}
	p.counts.in(len(b.Rows))
	p.counts.out(len(b.Rows))
	p.counts.batch()
	return nil
}

func (p *rankIter) Close() error { return p.child.Close() }
