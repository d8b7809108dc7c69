package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"timber/internal/pagestore"
	"timber/internal/storage"
)

// load creates a database file and loads XML documents into it. The
// first document bulk-loads the indices; later documents insert
// incrementally.
func (c *cli) load(args []string) error {
	fs := c.flags("load")
	dbPath := fs.String("db", "timber.db", "database file to create")
	poolMB := fs.Int("poolmb", 32, "buffer pool size in MiB")
	noValueIdx := fs.Bool("novalueindex", false, "skip the (tag, content) value index")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usageError("no input documents")
	}
	opts := storage.Options{PoolPages: poolPages(*poolMB), NoValueIndex: *noValueIdx}
	return withDB(*dbPath, true, opts, func(db *storage.DB) error {
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			start := time.Now()
			doc, err := db.LoadXML(filepath.Base(path), f)
			f.Close()
			if err != nil {
				return fmt.Errorf("load %s: %w", path, err)
			}
			info := db.Documents()[doc-1]
			fmt.Fprintf(c.stdout, "loaded %s as document %d: %d nodes in %v\n",
				path, doc, info.NodeCount, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintf(c.stdout, "database %s: %d pages of %d bytes\n", *dbPath, db.NumPages(), pagestore.DefaultPageSize)
		return nil
	})
}
