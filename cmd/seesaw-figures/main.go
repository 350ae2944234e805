// Command seesaw-figures regenerates the paper's tables and figures.
//
// Examples:
//
//	seesaw-figures -list
//	seesaw-figures -exp fig7
//	seesaw-figures -exp table3 -csv
//	seesaw-figures -all -refs 50000
//	seesaw-figures -exp fig12 -workloads redis,olio
//	seesaw-figures -all -parallel 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"seesaw/internal/cliutil"
	"seesaw/internal/experiments"
	"seesaw/internal/runner"
)

// prof carries the -pprof/-cpuprofile/-memprofile state; every exit path
// stops it so profiles are flushed even on os.Exit.
var prof *cliutil.Profiling

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		refs     = flag.Int("refs", 100_000, "memory references per simulation")
		seed     = flag.Int64("seed", 42, "deterministic seed")
		wls      = flag.String("workloads", "", "comma-separated workload subset (default: all)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = serial)")
	)
	prof = cliutil.RegisterProfiling(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "seesaw-figures:", err)
		os.Exit(1)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	// One pool shared across every requested experiment: identical cells
	// (e.g. the 64KB/1.33GHz baseline that most figures reference) run
	// once, and output order stays deterministic regardless of workers.
	opts := experiments.Options{Refs: *refs, Seed: *seed, Pool: runner.New(*parallel)}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "refs":
			opts.RefsSet = true
		case "seed":
			opts.SeedSet = true
		}
	})
	if *wls != "" {
		names, err := cliutil.SplitList(*wls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seesaw-figures: -workloads:", err)
			prof.Stop()
			os.Exit(2)
		}
		opts.Workloads = names
	}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *exp != "":
		var err error
		ids, err = cliutil.SplitList(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "seesaw-figures: -exp:", err)
			prof.Stop()
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "seesaw-figures: pass -exp <id>, -all, or -list")
		prof.Stop()
		os.Exit(2)
	}
	for _, id := range ids {
		start := time.Now()
		tb, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seesaw-figures: %s: %v\n", id, err)
			prof.Stop()
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s\n%s\n", id, tb.CSV())
		} else {
			tb.WriteTo(os.Stdout)
			fmt.Println()
			// Timing goes to stderr, so stdout holds only the
			// deterministic tables.
			fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", id, time.Since(start).Seconds())
		}
	}
	if st := opts.Pool.Stats(); st.CacheHits > 0 && !*csv {
		fmt.Fprintf(os.Stderr, "seesaw-figures: %d cells submitted to %d workers: %s\n",
			st.Submitted, opts.Pool.Workers(), st.Sources())
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "seesaw-figures:", err)
		os.Exit(1)
	}
}
