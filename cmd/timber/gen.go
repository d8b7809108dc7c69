package main

import (
	"bufio"
	"fmt"

	"timber/internal/dblpgen"
	"timber/internal/storage"
	"timber/internal/xmltree"
)

// gen emits a synthetic DBLP-Journals document as XML on stdout, or
// loads it straight into a new database file with -db.
func (c *cli) gen(args []string) error {
	fs := c.flags("gen")
	articles := fs.Int("articles", 10_000, "number of articles")
	seed := fs.Int64("seed", 2002, "generator seed")
	institutions := fs.Bool("institutions", false, "nest institution elements inside authors")
	dbPath := fs.String("db", "", "load into a timber database file instead of writing XML to stdout")
	if err := parse(fs, args); err != nil {
		return err
	}
	cfg := dblpgen.Config{Articles: *articles, Seed: *seed, WithInstitutions: *institutions}

	if *dbPath != "" {
		var stats dblpgen.Stats
		err := withDB(*dbPath, true, storage.Options{}, func(db *storage.DB) (err error) {
			stats, err = dblpgen.GenerateToDB(db, cfg)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stderr, "loaded %v into %s\n", stats, *dbPath)
		return nil
	}
	root, stats := dblpgen.Generate(cfg)
	w := bufio.NewWriter(c.stdout)
	if err := xmltree.Serialize(w, root); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "generated %v\n", stats)
	return nil
}
