// Command experiments regenerates the paper's tables and figures as
// plain-text tables.
//
// Usage:
//
//	experiments -run all            # everything, paper order
//	experiments -run fig13,fig18    # selected artifacts
//	experiments -run all -service   # route compiles through the compile
//	                                # service (cached; repeats are free)
//	experiments -list               # available experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/exp"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/service"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		useSvc  = flag.Bool("service", false, "run Atomique compiles through the compile service's batch path (content-addressed cache dedupes repeated sweeps)")
		workers = flag.Int("workers", 0, "service worker pool size (with -service; 0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *useSvc {
		engine := service.New(service.Config{Workers: *workers})
		defer func() {
			st := engine.Stats()
			fmt.Printf("[service: %d compiles, %d cache hits, %d misses, %d cached entries]\n",
				st.Submitted, st.CacheHits, st.CacheMisses, st.CacheEntries)
			engine.Close()
		}()
		exp.SetCompiler(func(cfg hardware.Config, c *circuit.Circuit, opts compiler.Options) (metrics.Compiled, error) {
			return engine.CompileMetrics(context.Background(), cfg, c, opts)
		})
	}

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
