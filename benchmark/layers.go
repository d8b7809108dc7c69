package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"timber/internal/btree"
	"timber/internal/engine"
	"timber/internal/match"
	"timber/internal/pagestore"
	"timber/internal/pattern"
	"timber/internal/sjoin"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// The layer microbenchmarks time calls into one layer's public
// functions, from outside, on the workload's own corpus (storage,
// sjoin, engine) or on a standalone structure built from the seed
// (btree, pagestore, wal). Each does a fixed amount of work, so the
// traced run's length does not depend on them, and reports the median
// of several rounds.

const layerRounds = 5

// medianRounds runs fn layerRounds times and returns the median of
// what it reports.
func medianRounds(fn func() (float64, error)) (float64, error) {
	v := make([]float64, 0, layerRounds)
	for i := 0; i < layerRounds; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		v = append(v, x)
	}
	return median(v), nil
}

// layerMetrics fills the metrics that do not depend on the workload's
// operation.
func layerMetrics(db *storage.DB, cfg config, out map[string]float64) error {
	for _, step := range []func(*storage.DB, config, map[string]float64) error{
		engineLayer, storageLayer, sjoinLayer, writeLayer, btreeLayer, pagestoreLayer,
	} {
		if err := step(db, cfg, out); err != nil {
			return err
		}
	}
	return nil
}

// engineLayer times PrepareCached on never-seen texts (parse,
// translate, rewrite, spec) and on a repeated text (one LRU probe),
// and the planner's pick through PreparedQuery.Explain.
func engineLayer(db *storage.DB, _ config, out map[string]float64) error {
	eng := engine.New(db, engine.Options{})
	const misses, hits = 64, 2000
	var miss []float64
	for i := 0; i < misses; i++ {
		// Trailing blanks make a new cache key without changing the
		// query.
		text := queryTitles + strings.Repeat(" ", i+1)
		t0 := time.Now()
		_, hit, err := eng.PrepareCached(text)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if hit {
			return fmt.Errorf("engine layer: text %d was expected to miss the plan cache", i)
		}
		miss = append(miss, float64(d.Nanoseconds())/1e3)
	}
	pq, err := eng.Prepare(queryTitles)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < hits; i++ {
		if _, hit, err := eng.PrepareCached(queryTitles); err != nil || !hit {
			return fmt.Errorf("engine layer: repeated text missed the plan cache (err %v)", err)
		}
	}
	out["prepare_miss_us"] = median(miss)
	out["prepare_hit_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / hits

	var pick []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		x := pq.Explain(engine.ExecOptions{})
		pick = append(pick, float64(time.Since(t0).Nanoseconds())/1e3)
		if x.Strategy == "" {
			return fmt.Errorf("engine layer: Explain named no strategy")
		}
	}
	out["plan_pick_us"] = median(pick)
	return nil
}

// storageLayer times a full tag-cursor drain per posting and
// ContentsBatch per look-up, over the author postings, on a warm pool.
func storageLayer(db *storage.DB, _ config, out map[string]float64) error {
	authors, err := db.TagPostings("author")
	if err != nil {
		return err
	}
	if len(authors) == 0 {
		return fmt.Errorf("storage layer: the corpus has no author postings")
	}
	out["tagscan_ns_per_posting"], err = medianRounds(func() (float64, error) {
		t0 := time.Now()
		c := db.OpenTagCursor("author")
		n := 0
		for {
			if _, more := c.Next(); !more {
				break
			}
			n++
		}
		if err := c.Close(); err != nil {
			return 0, err
		}
		if n != len(authors) {
			return 0, fmt.Errorf("storage layer: cursor returned %d postings, TagPostings %d", n, len(authors))
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	})
	if err != nil {
		return err
	}
	vals := make([]string, len(authors))
	out["content_ns_per_lookup"], err = medianRounds(func() (float64, error) {
		t0 := time.Now()
		if err := db.ContentsBatch(authors, vals); err != nil {
			return 0, err
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(authors)), nil
	})
	return err
}

// sjoinLayer times the stack-tree join of article and author
// intervals, the join every plan here is built from.
func sjoinLayer(db *storage.DB, _ config, out map[string]float64) error {
	intervals := func(tag string) ([]xmltree.Interval, error) {
		ps, err := db.TagPostings(tag)
		if err != nil {
			return nil, err
		}
		iv := make([]xmltree.Interval, len(ps))
		for i, p := range ps {
			iv[i] = p.Interval
		}
		return iv, nil
	}
	arts, err := intervals("article")
	if err != nil {
		return err
	}
	auths, err := intervals("author")
	if err != nil {
		return err
	}
	out["sjoin_mpairs_per_s"], err = medianRounds(func() (float64, error) {
		const reps = 10
		pairs := 0
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			pairs += len(sjoin.StackTree(arts, auths, sjoin.ParentChild))
		}
		if pairs == 0 {
			return 0, fmt.Errorf("sjoin layer: article/author join produced no pairs")
		}
		return float64(pairs) / time.Since(t0).Seconds() / 1e6, nil
	})
	return err
}

// writeLayer times InsertDocument in process on a scratch database:
// without fsync (the storage write path alone) and with one fsync per
// commit; the difference is the WAL's durable commit.
func writeLayer(_ *storage.DB, cfg config, out map[string]float64) error {
	db, err := storage.CreateTemp(storage.Options{PoolPages: warmPoolPages})
	if err != nil {
		return err
	}
	defer db.Close()
	if err := loadCorpus(db, dblpCorpus(cfg.scaled(2000), cfg.seed)); err != nil {
		return err
	}
	const docs = 40
	timeInserts := func(from int, pol storage.SyncPolicy) (float64, error) {
		var ms []float64
		for k := from; k < from+docs; k++ {
			t0 := time.Now()
			if _, err := db.InsertDocument(ingestName(k), ingestDoc(k), pol); err != nil {
				return 0, err
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		return median(ms), nil
	}
	none, err := timeInserts(0, storage.SyncNone)
	if err != nil {
		return err
	}
	always, err := timeInserts(docs, storage.SyncAlways)
	if err != nil {
		return err
	}
	out["insert_ms_per_doc"] = none
	out["wal_commit_ms"] = always - none
	return nil
}

// btreeLayer bulk-loads a standalone tree that fits its pool and times
// point seeks and a full range scan.
func btreeLayer(_ *storage.DB, cfg config, out map[string]float64) error {
	st, err := pagestore.CreateTempIn(cfg.workDir, pagestore.Options{PoolPages: warmPoolPages})
	if err != nil {
		return err
	}
	defer st.Close()
	n := cfg.scaled(200000)
	kvs := make([]btree.KV, n)
	for i := range kvs {
		k := make([]byte, 12)
		copy(k, "key:")
		binary.BigEndian.PutUint64(k[4:], uint64(i)*7)
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, uint64(i))
		kvs[i] = btree.KV{Key: k, Value: v}
	}
	tree, err := btree.BulkLoad(st, kvs)
	if err != nil {
		return err
	}
	var m btree.Metrics
	tree.SetMetrics(&m)
	rng := rand.New(rand.NewSource(cfg.seed))
	const seeks = 20000
	probe := make([]int, seeks)
	for i := range probe {
		probe[i] = rng.Intn(n)
	}
	out["btree_seek_ns"], err = medianRounds(func() (float64, error) {
		t0 := time.Now()
		for _, i := range probe {
			it := tree.Seek(kvs[i].Key)
			valid := it.Valid()
			if err := it.Close(); err != nil {
				return 0, err
			}
			if !valid {
				return 0, fmt.Errorf("btree layer: seek of a loaded key found nothing")
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / seeks, nil
	})
	if err != nil {
		return err
	}
	out["btree_node_visits_per_seek"] = float64(m.Snapshot().NodeVisits) / (seeks * layerRounds)
	out["btree_scan_ns_per_kv"], err = medianRounds(func() (float64, error) {
		seen := 0
		t0 := time.Now()
		if err := tree.ScanRange(kvs[0].Key, nil, func(_, _ []byte) bool { seen++; return true }); err != nil {
			return 0, err
		}
		if seen != n {
			return 0, fmt.Errorf("btree layer: scan saw %d of %d pairs", seen, n)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	})
	return err
}

// pagestoreLayer times Fetch+Unpin on a standalone compressed store:
// once with every page resident, once cycling through sixteen times
// more pages than the pool holds so that every fetch reads, checks and
// decompresses a slot.
func pagestoreLayer(_ *storage.DB, cfg config, out map[string]float64) error {
	const pool, pages = 256, 4096
	st, err := pagestore.CreateTempIn(cfg.workDir, pagestore.Options{PoolPages: pool, Codec: pagestore.LZ()})
	if err != nil {
		return err
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(cfg.seed))
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		p, err := st.Allocate()
		if err != nil {
			return err
		}
		// Half-compressible content, like an index page of postings.
		data := p.Data()
		for j := 0; j+8 <= len(data); j += 8 {
			binary.BigEndian.PutUint32(data[j:], uint32(i))
			binary.BigEndian.PutUint32(data[j+4:], rng.Uint32())
		}
		ids[i] = p.ID()
		st.Unpin(p, true)
	}
	if err := st.Flush(); err != nil {
		return err
	}
	fetch := func(set []pagestore.PageID, rounds int) (float64, error) {
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			for _, id := range set {
				p, err := st.Fetch(id)
				if err != nil {
					return 0, err
				}
				st.Unpin(p, false)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(set)), nil
	}
	// A set small enough that no shard overflows stays resident.
	resident := ids[:pool/4]
	if _, err := fetch(resident, 1); err != nil {
		return err
	}
	out["pool_fetch_hit_ns"], err = medianRounds(func() (float64, error) { return fetch(resident, 200) })
	if err != nil {
		return err
	}
	out["pool_fetch_miss_ns"], err = medianRounds(func() (float64, error) {
		if err := st.DropCache(); err != nil {
			return 0, err
		}
		st.ResetStats()
		ns, err := fetch(ids, 1)
		if err != nil {
			return 0, err
		}
		if s := st.Stats(); s.PhysicalReads != pages {
			return 0, fmt.Errorf("pagestore layer: %d of %d fetches read a slot", s.PhysicalReads, pages)
		}
		return ns, nil
	})
	return err
}

// branchOnly is the pattern set of the workloads that run queries:
// article{title,author} is the structure both query texts join.
var branchOnly = twigPatterns[1:2]

// matchLayer drains each pattern under each matcher and reports the
// median time and the matcher's own access counters. before, when
// non-nil, runs ahead of every drain (the cold workload drops the
// cache there).
func matchLayer(db *storage.DB, pats []patternDef, before func() error, out map[string]float64) error {
	for _, p := range pats {
		pt, err := pattern.ParseTree(p.Text)
		if err != nil {
			return err
		}
		labels := pt.Labels()
		var first witnessDigest
		for k, kind := range matcherKinds {
			var st *match.DBStats
			var got witnessDigest
			ms, err := medianRounds(func() (float64, error) {
				if before != nil {
					if err := before(); err != nil {
						return 0, err
					}
				}
				d, dig, s, err := drainPattern(db, pt, labels, kind)
				st, got = s, dig
				return float64(d.Nanoseconds()) / 1e6, err
			})
			if err != nil {
				return fmt.Errorf("match layer: %s under %v: %w", p.Name, kind, err)
			}
			if k == 0 {
				first = got
			} else if got != first {
				return fmt.Errorf("match layer: %s: the matchers disagree on the witnesses", p.Name)
			}
			suffix := p.Name + "_" + kind.String()
			out["match_ms_"+suffix] = ms
			out["match_postings_scanned_"+suffix] = float64(st.PostingsScanned)
			out["match_intermediate_bindings_"+suffix] = float64(st.IntermediateBindings)
		}
		out["match_witnesses_"+p.Name] = float64(first.Count)
	}
	return nil
}
