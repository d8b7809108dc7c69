// Quickstart: the paper's running example end to end on the Figure 6
// sample database — parse Query 1, translate it to the naive TAX plan,
// rewrite it around GROUPBY, execute both, and show they agree.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"timber/internal/exec"
	"timber/internal/opt"
	"timber/internal/paperdata"
	"timber/internal/plan"
	"timber/internal/storage"
	"timber/internal/xmltree"
	"timber/internal/xq"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Load the Figure 6 sample bibliography into a fresh database.
	db, err := storage.CreateTemp(storage.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	sample := paperdata.SampleDatabase()
	if _, err := db.LoadDocument("bib.xml", sample); err != nil {
		return err
	}
	fmt.Println("=== the Figure 6 sample database ===")
	xmltree.Serialize(os.Stdout, sample)

	// 2. Parse and translate Query 1 (Sec. 4.1 naive parsing).
	ast, err := xq.Parse(paperdata.Query1Text)
	if err != nil {
		return err
	}
	naive, err := plan.Translate(ast)
	if err != nil {
		return err
	}
	fmt.Println("\n=== naive TAX plan (Figure 4 pattern trees inside) ===")
	fmt.Print(plan.Format(naive))

	// 3. Detect the grouping idiom and rewrite (Sec. 4.1 Phases 1–2).
	rewritten, applied, err := opt.Rewrite(naive)
	if err != nil {
		return err
	}
	if !applied {
		return fmt.Errorf("rewrite unexpectedly did not apply")
	}
	fmt.Println("=== GROUPBY plan (Figure 5) ===")
	fmt.Print(plan.Format(rewritten))

	// 4. Execute both plans physically and print the answers.
	spec, err := exec.SpecFromPlan(rewritten)
	if err != nil {
		return err
	}
	spec.Strategy = exec.StrategyDirect
	direct, err := exec.Run(db, spec, exec.Options{})
	if err != nil {
		return err
	}
	spec.Strategy = exec.StrategyGroupBy
	group, err := exec.Run(db, spec, exec.Options{})
	if err != nil {
		return err
	}
	fmt.Println("=== result (direct plan order: first author occurrence) ===")
	for _, tr := range direct.Trees {
		xmltree.Serialize(os.Stdout, tr)
	}
	fmt.Println("=== result (groupby plan order: sorted by author) ===")
	for _, tr := range group.Trees {
		xmltree.Serialize(os.Stdout, tr)
	}
	fmt.Printf("\ndirect plan:  %d value look-ups, %d locator probes\n",
		direct.Stats.ValueLookups, direct.Stats.LocatorProbes)
	fmt.Printf("groupby plan: %d value look-ups, %d locator probes (identifier processing)\n",
		group.Stats.ValueLookups, group.Stats.LocatorProbes)
	return nil
}
