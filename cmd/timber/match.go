package main

import (
	"fmt"
	"os"

	"timber/internal/match"
	"timber/internal/pattern"
	"timber/internal/storage"
)

// match evaluates a pattern tree, given in the paper's figure notation
// (see pattern.ParseTree), against a database and prints the witness
// bindings — the raw Sec. 5.2 machinery behind selection and grouping:
//
//	timber match -db bib.timber -p '
//	$1 [tag=article]
//	  pc $2 [tag=title & content~"*Transaction*"]
//	  pc $3 [tag=author]'
//
// Each witness prints one line per bound label with the node identifier
// (doc:start), tag and content. -matcher selects the algorithm: auto
// (holistic when the pattern qualifies; default), binary (cascaded
// binary structural joins) or twig (the holistic twig join). The
// witnesses are byte-identical either way; the printed access counters
// show how the two differ in work.
func (c *cli) match(args []string) error {
	fs := c.flags("match")
	dbPath := fs.String("db", "timber.db", "database file")
	patSrc := fs.String("p", "", "pattern tree (figure notation)")
	patFile := fs.String("f", "", "read the pattern from this file")
	limit := fs.Int("limit", 20, "maximum witnesses to print (0 = all)")
	matcher := fs.String("matcher", "auto", "matching algorithm: auto, binary, twig")
	if err := parse(fs, args); err != nil {
		return err
	}
	src := *patSrc
	if *patFile != "" {
		b, err := os.ReadFile(*patFile)
		if err != nil {
			return err
		}
		src = string(b)
	}
	if src == "" {
		return usageError("pass a pattern via -p or -f")
	}

	pt, err := pattern.ParseTree(src)
	if err != nil {
		return err
	}
	kind, err := match.ParseMatcher(*matcher)
	if err != nil {
		return err
	}
	fmt.Fprint(c.stdout, pt.String())

	return withDB(*dbPath, false, storage.Options{}, func(db *storage.DB) error {
		ctx, stop := interruptible()
		defer stop()
		// One snapshot for the match and for reading back the records its
		// witnesses name.
		sn := db.Snapshot()
		defer sn.Close()
		witnesses, stats, err := match.MatchKindObs(ctx, sn, pt, kind, 0, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.stdout, "\n%d witnesses via the %s matcher (%d index candidates, %d postings scanned, %d intermediate bindings, %d record fetches for residual predicates)\n\n",
			stats.Witnesses, stats.Matcher, stats.Candidates, stats.PostingsScanned, stats.IntermediateBindings, stats.RecordFilterFetches)
		for i, w := range witnesses {
			if *limit > 0 && i >= *limit {
				fmt.Fprintf(c.stdout, "... %d more\n", len(witnesses)-*limit)
				break
			}
			fmt.Fprintf(c.stdout, "witness %d:\n", i+1)
			for _, lbl := range pt.Labels() {
				post := w[lbl]
				rec, err := sn.GetNodeAt(post.RID)
				if err != nil {
					return err
				}
				content := rec.Content
				if len(content) > 48 {
					content = content[:45] + "..."
				}
				fmt.Fprintf(c.stdout, "  %-4s -> %-10s %-12s %q\n", lbl, post.ID(), rec.Tag, content)
			}
		}
		return nil
	})
}
