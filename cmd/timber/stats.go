package main

import (
	"errors"
	"fmt"

	"timber/internal/storage"
)

// stats inspects a database file: the document catalog, the distinct
// tags with their posting counts, and the storage footprint.
func (c *cli) stats(args []string) error {
	fs := c.flags("stats")
	dbPath := fs.String("db", "timber.db", "database file")
	showTags := fs.Bool("tags", true, "list tags with posting counts")
	if err := parse(fs, args); err != nil {
		return err
	}
	return withDB(*dbPath, false, storage.Options{}, func(db *storage.DB) error {
		info, err := db.SizeInfo()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "database: %s\n", *dbPath)
		fmt.Fprintf(c.stdout, "pages:    %d (%.1f MiB on disk)\n", info.TotalPages, float64(info.TotalBytes)/(1<<20))
		fmt.Fprintf(c.stdout, "value index: %v\n\n", db.HasValueIndex())

		docs := db.Documents()
		fmt.Fprintf(c.stdout, "documents (%d):\n", len(docs))
		var totalNodes uint64
		for _, d := range docs {
			fmt.Fprintf(c.stdout, "  %3d  %-30s %12d nodes\n", d.ID, d.Name, d.NodeCount)
			totalNodes += d.NodeCount
		}
		fmt.Fprintf(c.stdout, "  total %d nodes\n", totalNodes)

		if !*showTags {
			return nil
		}
		tags, err := db.Tags()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "\ntags (%d):\n", len(tags))
		for _, tag := range tags {
			// Count by streaming the posting blocks rather than
			// materializing the tag's whole list.
			cur := db.OpenTagCursor(tag)
			n := 0
			for _, ok := cur.Next(); ok; _, ok = cur.Next() {
				n++
			}
			if err := errors.Join(cur.Err(), cur.Close()); err != nil {
				return err
			}
			fmt.Fprintf(c.stdout, "  %-24s %12d\n", tag, n)
		}
		return nil
	})
}
