// Command timber-stats inspects a timber database file: the document
// catalog, the distinct tags with their posting counts, and the storage
// footprint. It is the metadata manager's window for operators.
//
// With -calibrate it instead reads an event-journal dump (a crash dump
// or saved /debug/events output) and prints the planner's estimation
// accuracy per estimated quantity, from the plan_estimate events that
// auto-strategy queries emit, with a suggested scale for each.
//
// Usage:
//
//	timber-stats -db bib.timber [-tags]
//	timber-stats -calibrate events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"timber/internal/opt/planner"
	"timber/internal/storage"
)

func main() {
	dbPath := flag.String("db", "timber.db", "database file")
	showTags := flag.Bool("tags", true, "list tags with posting counts")
	calibrate := flag.String("calibrate", "", "summarize planner estimation accuracy from the plan_estimate events in this journal dump instead of inspecting -db")
	flag.Parse()
	var err error
	if *calibrate != "" {
		err = runCalibrate(*calibrate)
	} else {
		err = run(*dbPath, *showTags)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "timber-stats:", err)
		os.Exit(1)
	}
}

// runCalibrate prints the planner calibration table for a journal dump.
func runCalibrate(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := planner.ReadCalibration(f)
	if err != nil {
		return err
	}
	fmt.Printf("planner calibration (journal dump %s):\n", path)
	fmt.Printf("  %d plan_estimate events over %d journal lines\n", rep.Events, rep.Lines)
	fmt.Print(planner.CalibrationTable(rep))
	return nil
}

func run(dbPath string, showTags bool) (err error) {
	db, err := storage.Open(dbPath, storage.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	fmt.Printf("database: %s\n", dbPath)
	fmt.Printf("pages:    %d (%.1f MiB at 8 KiB)\n", db.NumPages(), float64(db.NumPages())*8/1024)
	fmt.Printf("value index: %v\n\n", db.HasValueIndex())

	docs := db.Documents()
	fmt.Printf("documents (%d):\n", len(docs))
	var totalNodes uint64
	for _, d := range docs {
		fmt.Printf("  %3d  %-30s %12d nodes\n", d.ID, d.Name, d.NodeCount)
		totalNodes += d.NodeCount
	}
	fmt.Printf("  total %d nodes\n", totalNodes)

	if !showTags {
		return nil
	}
	tags, err := db.Tags()
	if err != nil {
		return err
	}
	fmt.Printf("\ntags (%d):\n", len(tags))
	for _, tag := range tags {
		posts, err := db.TagPostings(tag)
		if err != nil {
			return err
		}
		fmt.Printf("  %-24s %12d\n", tag, len(posts))
	}
	return nil
}
