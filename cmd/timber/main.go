// Command timber is the command-line front end to a timber database
// file. Each subcommand has its own flags (`timber <sub> -h` lists
// them):
//
//	timber gen   -articles 10000 > journals.xml      synthetic DBLP-Journals XML
//	timber gen   -articles 10000 -db bib.timber      ... loaded straight into a database
//	timber load  -db bib.timber doc1.xml [doc2.xml]  create a database from XML files
//	timber stats -db bib.timber [-tags]              catalog, tags, storage footprint
//	timber stats -calibrate events.jsonl             planner accuracy from a journal dump
//	timber match -db bib.timber -p '<pattern>'       witnesses of a raw pattern tree
//	timber query -db bib.timber [-f q.xq | 'query']  plan and run an XQuery-subset query
//
// Files are always written with pagestore.DefaultPageSize pages, so
// every -poolmb flag converts MiB to pool pages at that size.
//
// Exit status: 0 on success, 1 when the subcommand fails, 2 on a bad
// invocation (unknown subcommand, bad flag, missing argument).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"timber/internal/pagestore"
	"timber/internal/storage"
)

func main() {
	os.Exit((&cli{stdout: os.Stdout, stderr: os.Stderr}).run(os.Args[1:]))
}

// cli is one invocation: where its subcommand writes.
type cli struct {
	stdout, stderr io.Writer
}

// usageError is a bad invocation; run exits 2 for it. An empty message
// means the flag set already reported the problem.
type usageError string

func (e usageError) Error() string { return string(e) }

// run dispatches args[0] to its subcommand and returns the exit status.
// Every subcommand returns only after its database is closed, so the
// caller may exit without skipping cleanup.
func (c *cli) run(args []string) int {
	commands := map[string]func(args []string) error{
		"gen":   c.gen,
		"load":  c.load,
		"stats": c.stats,
		"match": c.match,
		"query": c.query,
	}
	if len(args) == 0 || commands[args[0]] == nil {
		names := make([]string, 0, len(commands))
		for name := range commands {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(args) > 0 {
			fmt.Fprintf(c.stderr, "timber: unknown subcommand %q\n", args[0])
		}
		fmt.Fprintf(c.stderr, "usage: timber <subcommand> [flags]; subcommands: %s\n", strings.Join(names, ", "))
		return 2
	}
	err := commands[args[0]](args[1:])
	var usage usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usage):
		if usage != "" {
			fmt.Fprintf(c.stderr, "timber %s: %s\n", args[0], usage)
		}
		return 2
	default:
		fmt.Fprintf(c.stderr, "timber %s: %v\n", args[0], err)
		return 1
	}
}

// flags returns an empty flag set for a subcommand that reports to the
// invocation's stderr.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("timber "+name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// parse parses args into fs; a bad flag (already reported by fs) comes
// back as a usageError, -h as flag.ErrHelp.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError("")
	}
	return err
}

// interruptible returns a context that Ctrl-C (or SIGTERM) cancels, so
// a long match or query stops promptly instead of running to the end.
// Subcommands that cannot stop midway leave the signals' default
// behaviour alone.
func interruptible() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// poolPages converts a -poolmb value to buffer-pool pages.
func poolPages(mb int) int { return mb * 1024 * 1024 / pagestore.DefaultPageSize }

// withDB opens the database at path (creates it, with create), runs fn
// and closes it. Close runs even when fn fails, and a failed Close
// (lost metadata or dirty pages) never reports success.
func withDB(path string, create bool, opts storage.Options, fn func(*storage.DB) error) (err error) {
	open := storage.Open
	if create {
		open = storage.Create
	}
	db, err := open(path, opts)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return fn(db)
}
