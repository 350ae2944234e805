// Command seesaw-coord runs the sweep-fabric coordinator: it fronts a
// fleet of seesaw-served workers behind the same /v1/jobs API a single
// daemon serves, handing cells out under heartbeat-renewed leases so any
// worker can crash, hang, or restart mid-cell and the sweep still
// finishes with byte-identical merged tables (see internal/cluster).
//
//	seesaw-coord -addr :9090 -workers localhost:8081,localhost:8082 \
//	    -store /var/lib/seesaw/store
//	seesaw-coord -addr 127.0.0.1:0   # workers register themselves
//
// Workers may be listed statically with -workers or register at runtime
// via POST /v1/cluster/workers (seesaw-served -register does this).
// The shared -store is strongly recommended: it is what makes duplicate
// and re-dispatched cells free and lets a restarted coordinator resume
// a sweep from whatever the workers already computed.
//
// The coordinator drains gracefully on SIGTERM/SIGINT: intake stops
// (503), leased and queued cells finish, then the process exits. A
// second signal aborts immediately.
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

	"seesaw/internal/cliutil"
	"seesaw/internal/cluster"
	"seesaw/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:9090", "listen address (port 0 picks a random port)")
		workers    = flag.String("workers", "", "comma-separated static worker addresses (host:port)")
		storeDir   = flag.String("store", "", "shared content-addressed result store `dir` (empty = no read-through cache)")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "missed-heartbeat budget before a dispatched cell requeues")
		attempts   = flag.Int("max-attempts", 5, "per-cell dispatch budget before the cell is reported failed")
		backoff    = flag.Duration("backoff", 250*time.Millisecond, "base requeue backoff (jittered exponential)")
		backoffMax = flag.Duration("backoff-max", 8*time.Second, "requeue backoff ceiling")
		seed       = flag.Int64("seed", 1, "backoff jitter seed")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "worker health-probe cadence")
		evictAfter = flag.Int("evict-after", 3, "consecutive failed probes before a worker is evicted")
		rate       = flag.Float64("rate", 0, "job admissions per second (0 = unlimited); past it, 429 + Retry-After")
		burst      = flag.Int("burst", 4, "admission token-bucket capacity")
		maxCells   = flag.Int("max-cells", 4096, "largest accepted batch per job")
		drainGrace = flag.Duration("drain-grace", 10*time.Minute, "how long shutdown waits for in-flight work")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	cfg := cluster.Config{
		LeaseTTL: *leaseTTL, MaxAttempts: *attempts,
		BackoffBase: *backoff, BackoffMax: *backoffMax, Seed: *seed,
		ProbeEvery: *probeEvery, EvictAfter: *evictAfter,
		RatePerSec: *rate, Burst: *burst, MaxCellsPerJob: *maxCells,
		Logger: logger,
	}
	if *workers != "" {
		list, err := cliutil.SplitList(*workers)
		if err != nil {
			fatal(fmt.Errorf("-workers: %w", err))
		}
		cfg.Workers = list
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(fmt.Errorf("-store: %w", err))
		}
		st.Logger = logger
		cfg.Store = st
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	coord := cluster.New(cfg)
	httpSrv := &http.Server{Handler: coord.Handler()}

	// The resolved address goes to stdout so scripts (and the cluster
	// smoke test) can discover a random port; everything else is stderr.
	fmt.Printf("listening on %s\n", ln.Addr())
	logger.Printf("seesaw-coord: listening on %s (workers=%d store=%q)",
		ln.Addr(), len(cfg.Workers), *storeDir)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigs:
		logger.Printf("seesaw-coord: %s: draining (grace %s; signal again to abort)", sig, *drainGrace)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	go func() {
		<-sigs
		logger.Printf("seesaw-coord: second signal, aborting")
		cancel()
	}()
	drainErr := coord.Drain(ctx)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	httpSrv.Shutdown(shutCtx)
	shutCancel()
	cancel()
	coord.Close()
	if drainErr != nil {
		fatal(drainErr)
	}
	logger.Printf("seesaw-coord: drained clean")
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintln(os.Stderr, "seesaw-coord:", err)
	os.Exit(1)
}
