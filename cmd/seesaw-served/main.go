// Command seesaw-served runs the simulator as a long-lived service: an
// HTTP JSON API over a bounded job queue (see internal/service) with a
// disk-backed content-addressed result store, so identical cells across
// jobs, clients, and restarts are answered from disk instead of
// recomputed.
//
//	seesaw-served -addr :8080 -store /var/lib/seesaw/store
//	seesaw-served -addr 127.0.0.1:0        # random port, printed on stdout
//
// seesaw-client, seesaw-sweep -cluster and seesaw-evolve -cluster take
// the daemon's address and run their cells here.
//
// The server drains gracefully on SIGTERM/SIGINT: intake stops (503),
// queued and running jobs finish, then the process exits. A second
// signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"seesaw/internal/service"
	"seesaw/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a random port)")
		storeDir    = flag.String("store", "", "content-addressed result store `dir` (empty = no persistence)")
		queueDepth  = flag.Int("queue", 16, "job queue depth; submissions past it get 429 + Retry-After")
		workers     = flag.Int("workers", 0, "cells run concurrently per job (0 = GOMAXPROCS)")
		jobs        = flag.Int("jobs", 1, "jobs executed concurrently")
		maxCells    = flag.Int("max-cells", 256, "largest accepted batch per job")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock budget per cell, e.g. 5m (0 = unbounded); a cell that runs its group's pass gets one budget per cell it runs for")
		retries     = flag.Int("retries", 0, "re-execution attempts for panicking or timed-out cells")
		drainGrace  = flag.Duration("drain-grace", 10*time.Minute, "how long shutdown waits for in-flight jobs")
		rungEvery   = flag.Int("rung-every", 0, "persist an intermediate snapshot rung every N warmup references while climbing the store's snapshot ladder (0 = only the warmup-boundary rung; needs -store)")
		snapBudget  = flag.Int64("snap-budget", 0, "snapshot namespace size budget in bytes; oldest rungs are evicted past it (0 = unlimited; needs -store)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	cfg := service.Config{
		QueueDepth: *queueDepth, Workers: *workers, JobConcurrency: *jobs,
		MaxCellsPerJob: *maxCells, CellTimeout: *cellTimeout, Retries: *retries,
		SnapRungEvery: *rungEvery,
		Logger:        logger,
	}
	if *rungEvery < 0 {
		fatal(fmt.Errorf("-rung-every must be positive"))
	}
	if (*rungEvery != 0 || *snapBudget != 0) && *storeDir == "" {
		fatal(fmt.Errorf("-rung-every/-snap-budget need -store"))
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("-store: %w", err))
		}
		st.Logger = logger
		if *snapBudget > 0 {
			st.SetSnapBudget(*snapBudget)
		}
		cfg.Store = st
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	svc := service.New(cfg)
	httpSrv := &http.Server{Handler: svc.Handler()}

	// The resolved address goes to stdout so scripts (and the smoke test)
	// can discover a random port; everything else logs to stderr.
	fmt.Printf("listening on %s\n", ln.Addr())
	logger.Printf("seesaw-served: listening on %s (queue=%d workers=%d store=%q)",
		ln.Addr(), *queueDepth, svc.Workers(), *storeDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigs:
		logger.Printf("seesaw-served: %s: draining (grace %s; signal again to abort)", sig, *drainGrace)
	}

	// Graceful drain: stop intake, let in-flight jobs finish, then close
	// the HTTP server (which ends any live SSE streams).
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	go func() {
		<-sigs
		logger.Printf("seesaw-served: second signal, aborting")
		cancel()
	}()
	drainErr := svc.Drain(ctx)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutCtx)
	shutCancel()
	cancel()
	svc.Close()
	if drainErr != nil {
		fatal(drainErr)
	}
	logger.Printf("seesaw-served: drained clean")
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "seesaw-served:", err)
	os.Exit(1)
}
