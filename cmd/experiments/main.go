// Command experiments regenerates the paper's tables and figures as
// plain-text tables.
//
// Usage:
//
//	experiments -run all            # everything, paper order
//	experiments -run fig13,fig18    # selected artifacts
//	experiments -list               # available experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"atomique/internal/exp"
)

func main() {
	var (
		run  = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []exp.Experiment
	if *run == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		start := time.Now()
		tables := e.Run()
		for _, t := range tables {
			t.Render(os.Stdout)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
