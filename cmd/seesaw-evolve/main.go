// seesaw-evolve autotunes SEESAW: a deterministic, seeded evolutionary
// search over the design-space knobs (TFT geometry, partition split,
// speculation policy, OS promotion/splinter cadences), evaluated
// through the same warmed, laddered, content-addressed stack the
// figures use, reporting a Pareto front over speedup, translation MPKI,
// dynamic energy, and SRAM area.
//
//	seesaw-evolve -seed 7 -generations 8 -pop 12 -frag 0.6
//	seesaw-evolve -store /tmp/rs -warmup 200000                # warmed + resumable
//	seesaw-evolve -cluster localhost:8080                      # on a seesaw-served daemon
//
// Same seed, same scenario → byte-identical generation log (stderr) and
// front (stdout). Genomes that agree on OS knobs fork one warmed
// machine. With -store, warmups climb the store's snapshot ladder and
// search state checkpoints at every generation boundary; a killed
// search re-run with the same flags resumes mid-search, and its re-done
// generation costs store hits, not simulations.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"seesaw/internal/cliutil"
	"seesaw/internal/evolve"
	"seesaw/internal/runner"
	"seesaw/internal/store"
)

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "seesaw-evolve:", err)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seesaw-evolve:", err)
	os.Exit(1)
}

func main() {
	var (
		seed        = flag.Int64("seed", 7, "search seed: drives mutation, crossover, and selection")
		pop         = flag.Int("pop", 12, "genomes per generation")
		generations = flag.Int("generations", 8, "budget in generations")
		evals       = flag.Int("evals", 0, "additional budget cap in distinct genome evaluations (0 = generations only)")
		weightsFlag = flag.String("weights", "", "selection weights, e.g. speedup=1,mpki=0.25,energy=0.25,area=0.1 (omitted keys keep defaults)")

		wls          = flag.String("workloads", "redis,mcf", "comma-separated workloads every genome is scored on")
		frag         = flag.Float64("frag", 0.6, "memhog fraction fragmenting physical memory (the scenario SEESAW exists for)")
		workloadSeed = flag.Int64("workload-seed", 42, "workload/OS seed (fixed across the search; not the search seed)")
		refs         = flag.Int("refs", 50_000, "measured references per cell")
		warmup       = flag.Int("warmup", 0, "OS-only warmup references per cell (0 = none); warmups are shared across genomes that agree on OS knobs")

		parallel    = flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = serial)")
		storeDir    = flag.String("store", "", "content-addressed result store `dir`: dedups evaluations across generations and runs, and holds the search checkpoint")
		rungEvery   = flag.Int("rung-every", 0, "persist an intermediate snapshot rung every N warmup references while climbing the store's ladder (0 = only the warmup-boundary rung; requires -store)")
		clusterURL  = flag.String("cluster", "", "evaluate on the seesaw-served daemon at `URL` instead of locally")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock budget per cell (0 = unbounded); a cell that runs its group's pass gets one budget per cell it runs for")
		retries     = flag.Int("retries", 0, "re-execution attempts for panicking or timed-out cells")

		jsonOut = flag.Bool("json", false, "emit the full result as JSON instead of the front table")
		prof    = cliutil.RegisterProfiling(flag.CommandLine)
	)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	workloads, err := cliutil.SplitList(*wls)
	if err != nil {
		fatalUsage(err)
	}
	weights, err := evolve.ParseWeights(*weightsFlag)
	if err != nil {
		fatalUsage(err)
	}
	if *rungEvery != 0 && *storeDir == "" {
		fatalUsage(fmt.Errorf("-rung-every needs -store"))
	}
	if *rungEvery < 0 {
		fatalUsage(fmt.Errorf("-rung-every must be >= 0"))
	}
	if *clusterURL != "" && *storeDir != "" {
		// Evaluation dedup is server-side in remote mode; the local
		// store still holds the checkpoint, which is all it is for.
		fmt.Fprintln(os.Stderr, "seesaw-evolve: -cluster evaluates remotely; -store holds only the search checkpoint")
	}

	opts := evolve.Options{
		Seed:        *seed,
		Population:  *pop,
		Generations: *generations,
		MaxEvals:    *evals,
		Weights:     weights,
		Scenario: evolve.Scenario{
			Workloads:  workloads,
			Frag:       *frag,
			Seed:       *workloadSeed,
			Refs:       *refs,
			WarmupRefs: *warmup,
		},
		Log: os.Stderr,
	}

	var st *store.Store
	// snaps stays an untyped nil without -store: a nil *store.Store in
	// the interface would not be nil.
	var snaps runner.SnapshotStore
	if *storeDir != "" {
		st, err = store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		opts.Checkpoint = st
		snaps = st
	}

	var ev evolve.Evaluator
	var pool *runner.Pool
	if *clusterURL != "" {
		ev = evolve.NewClusterEvaluator(*clusterURL)
	} else {
		run, ls := runner.LadderRun(snaps, *rungEvery)
		pool = runner.NewWithRunContext(*parallel, run).
			WithLadderStats(ls).
			WithTimeout(*cellTimeout).
			WithRetries(*retries)
		if st != nil {
			pool.WithStore(st)
		}
		ev = evolve.PoolEvaluator{Pool: pool}
	}

	search, err := evolve.New(opts, ev)
	if err != nil {
		fatal(err)
	}
	res, err := search.Run(context.Background())
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	writeFront(res)
	if pool != nil {
		fmt.Fprintf(os.Stderr, "evaluation sources: %s\n", ev.Sources())
	}
}

// writeFront renders the Pareto front and the paper-default comparison.
// This table is the byte-identical artifact the determinism gates diff.
func writeFront(res *evolve.Result) {
	fmt.Printf("Pareto front (%d of %d evaluated genomes, %d generations, %d pruned)\n",
		len(res.Front), res.Evaluations, res.Generations, res.Pruned)
	fmt.Printf("%-42s %9s %8s %10s %7s %8s\n",
		"genome", "speedup", "mpki", "energy_nJ", "area_B", "score")
	for _, c := range res.Front {
		fmt.Printf("%-42s %9.4f %8.3f %10.0f %7.0f %8.4f\n",
			c.Genome.Key(), c.Obj.Speedup, c.Obj.MPKI, c.Obj.EnergyNJ, c.Obj.AreaBytes, c.Score)
	}
	d := res.Default
	fmt.Printf("%-42s %9.4f %8.3f %10.0f %7.0f %8.4f\n",
		"paper-default "+d.Genome.Key(), d.Obj.Speedup, d.Obj.MPKI, d.Obj.EnergyNJ, d.Obj.AreaBytes, d.Score)
	if res.BestDominatesDefault {
		fmt.Println("verdict: a found genome strictly Pareto-dominates the paper default")
	} else {
		fmt.Println("verdict: no found genome strictly dominates the paper default")
	}
}
