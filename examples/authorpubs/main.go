// Authorpubs: the paper's Sec. 6 experiment in miniature — generate a
// synthetic DBLP-Journals database, run the group-by-author query with
// every physical strategy, and print the comparison table. This is the
// workload the paper's introduction motivates (XQuery use case
// 1.1.9.4 Q4).
//
//	go run ./examples/authorpubs [-articles N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"timber/internal/dblpgen"
	"timber/internal/engine"
	"timber/internal/exec"
	"timber/internal/pagestore"
	"timber/internal/paperdata"
	"timber/internal/storage"
)

func main() {
	articles := flag.Int("articles", 5000, "articles in the synthetic database")
	flag.Parse()
	if err := run(*articles); err != nil {
		log.Fatal(err)
	}
}

// strategies are the table rows: the paper's two measured plans (the
// naive direct plan and the groupby identifier plan) with the batch
// direct plan Sec. 6's prose describes between them.
var strategies = []exec.Strategy{
	exec.StrategyDirect,
	exec.StrategyDirectBatch,
	exec.StrategyGroupBy,
}

func run(articles int) error {
	db, err := storage.CreateTemp(storage.Options{
		PageSize:  pagestore.DefaultPageSize,
		PoolPages: articles / 40, // pool ≈ a third of the data
	})
	if err != nil {
		return err
	}
	defer db.Close()
	stats, err := dblpgen.GenerateToDB(db, dblpgen.Config{Articles: articles, Seed: 42})
	if err != nil {
		return err
	}
	fmt.Printf("database: %v\n\n", stats)

	eng := engine.New(db, engine.Options{})
	fmt.Println("Query 1 — titles per author (paper E1):")
	if err := compare(db, eng, paperdata.Query1Text); err != nil {
		return err
	}
	fmt.Println("\nCount variant (paper E2):")
	if err := compare(db, eng, paperdata.QueryCountText); err != nil {
		return err
	}

	fmt.Println("\nThe groupby (identifier) plan populates only the grouping")
	fmt.Println("values plus what the output needs (Sec. 5.3); the naive direct")
	fmt.Println("plan replicates full article subtrees through storage (Fig. 8).")
	return nil
}

// compare runs the query once per strategy, each from a cold buffer
// pool with zeroed counters, and prints wall time relative to the
// naive direct plan alongside the deterministic access counts.
func compare(db *storage.DB, eng *engine.Engine, text string) error {
	pq, err := eng.Prepare(text)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %8s %10s %10s %10s %12s %8s\n",
		"plan", "wall", "vs base", "fetches", "reads", "hit%", "valueLooks", "groups")
	var base time.Duration
	for _, strat := range strategies {
		if err := db.DropCache(); err != nil {
			return err
		}
		db.ResetStats()
		start := time.Now()
		res, err := pq.Execute(context.Background(), engine.ExecOptions{Strategy: strat})
		if err != nil {
			return fmt.Errorf("%v: %w", strat, err)
		}
		wall := time.Since(start)
		if base == 0 {
			base = wall
		}
		pool := db.Stats()
		fmt.Printf("%-14s %12s %7.2fx %10d %10d %9.1f%% %12d %8d\n",
			strat, wall.Round(time.Microsecond), float64(base)/float64(wall),
			pool.Fetches, pool.PhysicalReads, 100*pool.HitRate(),
			res.Stats.ValueLookups, res.Stats.Groups)
	}
	return nil
}
