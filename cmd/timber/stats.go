package main

import (
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
		// Every figure below comes from one committed state.
		sn := db.Snapshot()
		defer sn.Close()
		info, err := sn.SizeInfo()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "database: %s\n", *dbPath)
		fmt.Fprintf(c.stdout, "pages:    %d (%.1f MiB on disk)\n", info.TotalPages, float64(info.TotalBytes)/(1<<20))
		fmt.Fprintf(c.stdout, "value index: %v\n\n", sn.HasValueIndex())

		docs := sn.Documents()
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
		tags, err := sn.Tags()
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "\ntags (%d):\n", len(tags))
		for _, tag := range tags {
			// Count by summing the posting blocks rather than
			// materializing the tag's whole list.
			s := sn.TagStream(tag)
			n := 0
			for b, ok := s.NextBlock(); ok; b, ok = s.NextBlock() {
				n += len(b)
			}
			if err := s.Close(); err != nil {
				return err
			}
			fmt.Fprintf(c.stdout, "  %-24s %12d\n", tag, n)
		}
		return nil
	})
}
