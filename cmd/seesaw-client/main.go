// Command seesaw-client talks to a running seesaw-served daemon: it
// submits jobs, waits for and prints results, tails SSE progress
// streams, and cancels jobs.
//
//	seesaw-client -addr localhost:8080 -workloads redis,mcf -refs 50000
//	seesaw-client -addr localhost:8080 -job job.json -wait
//	seesaw-client -addr localhost:8080 -stream j000001
//	seesaw-client -addr localhost:8080 -status j000001
//	seesaw-client -addr localhost:8080 -cancel j000001
//
// Without -job, a job is built from the sweep-style flags: one cell per
// (workload, cache) pair. The submitted job id goes to stdout; with
// -wait the client polls until the job finishes and prints a result
// summary (exit 1 if any cell failed).
//
// The client is a polite tenant of a busy service: a 429 response is
// absorbed by sleeping out the server's Retry-After hint and
// resubmitting, and a progress stream severed mid-job reconnects with
// Last-Event-ID, so every event is printed exactly once across
// reconnects (see internal/service.Client).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seesaw/internal/cliutil"
	"seesaw/internal/service"
	"seesaw/internal/sim"
)

func main() {
	var (
		addr = flag.String("addr", "localhost:8080", "seesaw-served address")

		jobFile = flag.String("job", "", "submit this JSON job `file` (a service.JobRequest) instead of building one from flags")
		label   = flag.String("label", "", "label for the submitted job")
		wls     = flag.String("workloads", "redis", "comma-separated workloads, one cell per (workload, cache)")
		caches  = flag.String("caches", "seesaw", "comma-separated cache designs: "+strings.Join(sim.DesignNames(), ", "))
		sizeKB  = flag.Uint64("size", 0, "L1 size in KB (0 = server default)")
		refs    = flag.Int("refs", 0, "references per cell (0 = simulator default)")
		seed    = flag.Int64("seed", 42, "deterministic seed")
		epochs  = flag.Int("epoch-refs", 0, "enable per-cell metrics with this epoch length")
		check   = flag.Bool("check", false, "run the online invariant checker in every cell")

		wait    = flag.Bool("wait", false, "poll the submitted job until it finishes and print results")
		stream  = flag.String("stream", "", "tail the SSE progress stream of job `id`")
		status  = flag.String("status", "", "print the status of job `id`")
		cancel  = flag.String("cancel", "", "cancel job `id`")
		raw     = flag.Bool("json", false, "print raw JSON instead of a summary")
		timeout = flag.Duration("timeout", 0, "overall budget for -wait/-stream (0 = unbounded)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q — jobs are submitted with -job <file>, not positionally", flag.Args()))
	}
	cl := service.NewClient(*addr)
	ctx := context.Background()
	if *timeout > 0 {
		var cancelCtx context.CancelFunc
		ctx, cancelCtx = context.WithTimeout(ctx, *timeout)
		defer cancelCtx()
	}

	switch {
	case *stream != "":
		if err := cl.Stream(ctx, *stream, func(ev service.Event) { printEvent(*stream, ev) }); err != nil {
			fatal(err)
		}
	case *status != "":
		st, err := cl.Status(ctx, *status, true)
		if err != nil {
			fatal(err)
		}
		printStatus(st, *raw)
	case *cancel != "":
		if _, err := cl.Cancel(ctx, *cancel); err != nil {
			fatal(err)
		}
		fmt.Printf("canceled %s\n", *cancel)
	default:
		req := buildJob(*jobFile, *label, *wls, *caches, *sizeKB, *refs, *seed, *epochs, *check)
		st, err := cl.Submit(ctx, req)
		if err != nil {
			fatal(err)
		}
		fmt.Println(st.ID)
		if *wait {
			st, err = cl.Wait(ctx, st.ID, 250*time.Millisecond)
			if err != nil {
				fatal(err)
			}
			printStatus(st, *raw)
			if st.Failed > 0 || st.State != service.StateDone {
				os.Exit(1)
			}
		}
	}
}

// buildJob loads -job FILE, or assembles a request from the flag grid.
func buildJob(file, label, wls, caches string, sizeKB uint64, refs int, seed int64, epochs int, check bool) service.JobRequest {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			fatal(err)
		}
		var req service.JobRequest
		if err := json.Unmarshal(data, &req); err != nil {
			fatal(fmt.Errorf("%s: %w", file, err))
		}
		if label != "" {
			req.Label = label
		}
		return req
	}
	wnames, err := cliutil.SplitList(wls)
	if err != nil {
		fatal(fmt.Errorf("-workloads: %w", err))
	}
	cnames, err := cliutil.SplitList(caches)
	if err != nil {
		fatal(fmt.Errorf("-caches: %w", err))
	}
	req := service.JobRequest{Label: label}
	for _, w := range wnames {
		for _, c := range cnames {
			req.Cells = append(req.Cells, service.CellSpec{
				Workload: w, Cache: c, SizeKB: sizeKB, Refs: refs,
				Seed: seed, EpochRefs: epochs, Check: check,
			})
		}
	}
	return req
}

// printStatus renders a job result summary, or the raw JSON with -json.
func printStatus(st service.JobStatus, raw bool) {
	if raw {
		data, _ := json.MarshalIndent(st, "", "  ")
		fmt.Println(string(data))
		return
	}
	fmt.Printf("job %s: %s (%d/%d cells", st.ID, st.State, st.Completed, st.Cells)
	if st.Failed > 0 {
		fmt.Printf(", %d failed", st.Failed)
	}
	fmt.Printf("; runs=%d store_hits=%d cache_hits=%d retries=%d)\n",
		st.Pool.Runs, st.Pool.StoreHits, st.Pool.CacheHits, st.Pool.Retries)
	for _, r := range st.Results {
		switch {
		case r.Report != nil:
			fmt.Printf("  %-40s IPC %.3f  cycles %d  energy %.1f nJ\n",
				r.Desc, r.Report.IPC, r.Report.Cycles, r.Report.EnergyTotalNJ)
		case r.Error != "":
			fmt.Printf("  %-40s FAILED: %s\n", r.Desc, r.Error)
		default:
			fmt.Printf("  %-40s %s\n", r.Desc, r.Status)
		}
	}
	if st.Error != "" {
		fmt.Printf("  error: %s\n", st.Error)
	}
}

// printEvent renders one SSE progress event.
func printEvent(id string, ev service.Event) {
	switch ev.Type {
	case "state", "done":
		fmt.Printf("%s: %s\n", id, ev.State)
	case "cell":
		if ev.OK {
			fmt.Printf("%s: [%d/%d] %s ok", id, ev.Completed, ev.Cells, ev.Desc)
			if ev.Epochs > 0 {
				fmt.Printf(" (refs=%d epochs=%d l1=%d/%d)", ev.Refs, ev.Epochs, ev.L1Hits, ev.L1Hits+ev.L1Misses)
			}
			fmt.Println()
		} else {
			fmt.Printf("%s: [%d/%d] %s FAILED: %s\n", id, ev.Completed, ev.Cells, ev.Desc, ev.Error)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seesaw-client:", err)
	os.Exit(1)
}
