// Command shortcutbench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per quantitative claim of the paper (theorems, lemmas,
// corollaries) plus design ablations.
//
// Usage:
//
//	shortcutbench [-exp E1,E4] [-quick] [-seed N] [-list]
//
// Without -exp, every registered experiment runs in order. Output is
// GitHub-flavored markdown on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"locshort/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shortcutbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		quick    = flag.Bool("quick", false, "reduced instance sizes")
		seed     = flag.Int64("seed", 1, "random seed")
		listOnly = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *listOnly {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}

	exps := bench.All()
	if *expFlag != "" {
		exps = nil
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			exps = append(exps, e)
		}
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	violations := 0
	for _, e := range exps {
		start := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		violations += len(tab.Violations())
	}
	if violations > 0 {
		return fmt.Errorf("%d bound violations — see NO cells above", violations)
	}
	return nil
}
