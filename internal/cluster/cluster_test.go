package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/runner"
	"seesaw/internal/service"
	"seesaw/internal/sim"
	"seesaw/internal/store"
	"seesaw/internal/workload"
)

// fakeRun is a deterministic stand-in for the simulator: the report is a
// pure function of the config (hashed canonical key), so byte-identical
// merged tables are meaningful, and the optional delay keeps cells in
// flight long enough for chaos to land on them.
func fakeRun(delay time.Duration) runner.RunFunc {
	return func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		if delay > 0 {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		key, _ := cfg.CanonicalKey()
		h := fnv.New64a()
		io.WriteString(h, key)
		v := h.Sum64()
		rep := &sim.Report{
			SchemaVersion: sim.SchemaVersion,
			Design:        "fake",
			Workload:      fmt.Sprintf("%+v", cfg.Workload)[:8],
			Cycles:        v % 1_000_000,
			Instructions:  v % 500_000,
			L1Hits:        v % 90_000,
			L1Misses:      v % 10_000,
			IPC:           float64(v%1000) / 1000,
		}
		return rep, nil
	}
}

// testWorker is one fake seesaw-served process: a real service.Server
// (healthz, /v1/cells/run, drain semantics) over an injected run
// function, behind an httptest listener and an optional chaos middleware.
type testWorker struct {
	svc  *service.Server
	ts   *httptest.Server
	addr string
	// wedgeNext, while positive, makes the next cell dispatches hang
	// without writing anything — the "hung worker" row of the failure
	// matrix: the connection stays open, no heartbeats flow.
	wedgeNext atomic.Int32
	// down, while set, fails every request — the "unhealthy worker" used
	// by the eviction/readmission test.
	down   atomic.Bool
	killed atomic.Bool
	quit   chan struct{} // closed on kill so wedged handlers unblock
}

func (tw *testWorker) kill() {
	if tw.killed.Swap(true) {
		return
	}
	close(tw.quit)
	tw.ts.CloseClientConnections()
	tw.ts.Close()
	tw.svc.Close()
}

// startWorker boots one fake worker. st may be shared across workers (the
// cluster's shared read-through store) or nil.
func startWorker(t *testing.T, run runner.RunFunc, st *store.Store) *testWorker {
	t.Helper()
	svc := service.New(service.Config{
		Workers: 2,
		Store:   st,
		Run:     run,
		Logger:  log.New(io.Discard, "", 0),
	})
	tw := &testWorker{svc: svc, quit: make(chan struct{})}
	inner := svc.Handler()
	tw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tw.down.Load() {
			http.Error(w, "chaos: down", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/v1/cells/run" && tw.wedgeNext.Load() > 0 {
			tw.wedgeNext.Add(-1)
			select { // hang silently until the lease gives up
			case <-r.Context().Done():
			case <-tw.quit:
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	tw.addr = tw.ts.Listener.Addr().String()
	t.Cleanup(tw.kill)
	return tw
}

// startCoordinator boots a coordinator over the given workers.
func startCoordinator(t *testing.T, cfg Config, workers ...*testWorker) (*Coordinator, *httptest.Server) {
	t.Helper()
	for _, w := range workers {
		cfg.Workers = append(cfg.Workers, w.addr)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	c := New(cfg)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() { ts.Close(); c.Close() })
	return c, ts
}

// fastClusterConfig is tuned so lease expiry, eviction, and backoff all
// play out in milliseconds.
func fastClusterConfig() Config {
	return Config{
		LeaseTTL:     400 * time.Millisecond,
		MaxAttempts:  8,
		BackoffBase:  20 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		Seed:         1,
		ProbeEvery:   50 * time.Millisecond,
		ProbeTimeout: 250 * time.Millisecond,
		EvictAfter:   2,
	}
}

// sweepRequest builds a deterministic multi-signature cell matrix:
// designs x seeds over one workload, every cell warmed (so affinity
// routing engages), plus duplicate spellings of the first cell.
func sweepRequest(cells int) service.JobRequest {
	wl := workload.Names()[0]
	req := service.JobRequest{Label: "chaos"}
	for i := 0; i < cells; i++ {
		req.Cells = append(req.Cells, service.CellSpec{
			Workload:   wl,
			Cache:      []string{"seesaw", "baseline", "pipt"}[i%3],
			Seed:       int64(i / 3),
			Refs:       1000,
			WarmupRefs: 500,
		})
	}
	return req
}

func clientFor(ts *httptest.Server) *Client { return NewClient(ts.URL) }

// runSingleDaemon executes req on a plain one-process service and
// returns the per-cell reports as raw JSON — the reference table the
// cluster must reproduce byte-for-byte.
func runSingleDaemon(t *testing.T, req service.JobRequest, run runner.RunFunc) []json.RawMessage {
	t.Helper()
	svc := service.New(service.Config{Workers: 4, Run: run, Logger: log.New(io.Discard, "", 0)})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := clientFor(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("single-daemon submit: %v", err)
	}
	st, err = cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("single-daemon wait: %v", err)
	}
	if st.State != service.StateDone {
		t.Fatalf("single-daemon job ended %s: %s", st.State, st.Error)
	}
	return reportTable(t, st)
}

// reportTable marshals each cell's report; a nil report fails the test.
func reportTable(t *testing.T, st service.JobStatus) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(st.Results))
	for i, r := range st.Results {
		if r.Status != "done" || r.Report == nil {
			t.Fatalf("cell %d not done: status=%s err=%s", i, r.Status, r.Error)
		}
		data, err := json.Marshal(r.Report)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// TestClusterSweepMatchesSingleDaemon is the calm-weather contract: the
// same job through a 3-worker cluster and through one daemon produces
// byte-identical tables, duplicates piggyback, and the audit counters
// balance.
func TestClusterSweepMatchesSingleDaemon(t *testing.T) {
	run := fakeRun(2 * time.Millisecond)
	req := sweepRequest(24)
	// Exact duplicates of the first two cells: dup suppression or store
	// hits must resolve them without extra computes.
	req.Cells = append(req.Cells, req.Cells[0], req.Cells[1])
	want := runSingleDaemon(t, req, run)

	workers := []*testWorker{
		startWorker(t, run, nil),
		startWorker(t, run, nil),
		startWorker(t, run, nil),
	}
	c, ts := startCoordinator(t, fastClusterConfig(), workers...)
	cl := clientFor(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job ended %s: %s", st.State, st.Error)
	}
	got := reportTable(t, st)
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("cell %d diverged:\ncluster: %s\ndaemon:  %s", i, got[i], want[i])
		}
	}
	ct := c.Counters()
	if ct.CellsTotal != uint64(len(req.Cells)) || ct.CellsDone != ct.CellsTotal {
		t.Fatalf("cell accounting: %+v", ct)
	}
	if ct.DupHits == 0 {
		t.Fatalf("expected duplicate cells to piggyback, counters %+v", ct)
	}
	if ct.RemoteRuns+ct.DupHits+ct.StoreHits != ct.CellsTotal {
		t.Fatalf("resolution accounting: %+v", ct)
	}
	if ct.AffinityHits == 0 {
		t.Fatalf("warmed sweep should hit affinity routing, counters %+v", ct)
	}
}

// TestClusterChaos is the failure matrix end to end: a seeded schedule
// kills workers mid-cell, wedges dispatches (hang, no heartbeats), and
// registers replacements while an 8-worker sweep runs. The sweep must
// finish with zero lost cells, a merged table byte-identical to the
// single-daemon run, and every requeue accounted for in the counters.
func TestClusterChaos(t *testing.T) {
	run := fakeRun(8 * time.Millisecond)
	req := sweepRequest(48)
	want := runSingleDaemon(t, req, run)

	var workers []*testWorker
	for i := 0; i < 8; i++ {
		workers = append(workers, startWorker(t, run, nil))
	}
	// Two workers start wedge-prone: their next dispatches hang without
	// heartbeats until the lease expires — the hung-worker row.
	workers[0].wedgeNext.Store(2)
	workers[1].wedgeNext.Store(1)

	c, ts := startCoordinator(t, fastClusterConfig(), workers...)
	cl := clientFor(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos driver: a seeded schedule (the process-level analogue of the
	// simulator's internal/faults idiom) that kills live workers and
	// registers replacements while the sweep runs.
	var mu sync.Mutex
	live := append([]*testWorker(nil), workers...)
	rng := rand.New(rand.NewSource(42))
	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		kills := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			switch rng.Intn(3) {
			case 0:
				mu.Lock()
				if kills < 3 && len(live) > 2 {
					i := rng.Intn(len(live))
					w := live[i]
					live = append(live[:i], live[i+1:]...)
					kills++
					mu.Unlock()
					w.kill() // crashed worker: every in-flight stream resets
					continue
				}
				mu.Unlock()
			case 1:
				if kills > 0 {
					w := startWorker(t, run, nil)
					mu.Lock()
					live = append(live, w)
					mu.Unlock()
					if err := c.Register(w.addr); err != nil {
						t.Error(err)
						return
					}
					kills--
				}
			}
		}
	}()

	st, err = cl.Wait(ctx, st.ID, 20*time.Millisecond)
	close(stop)
	chaos.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("chaos job ended %s: %s", st.State, st.Error)
	}

	// Zero lost cells, byte-identical table.
	got := reportTable(t, st)
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("cell %d diverged under chaos:\ncluster: %s\ndaemon:  %s", i, got[i], want[i])
		}
	}

	// Every requeue accounted for: requeues happen only when a lease
	// failed (expired, evicted, or errored), and every cell is resolved
	// exactly once.
	ct := c.Counters()
	if ct.CellsTotal != uint64(len(req.Cells)) || ct.CellsDone != ct.CellsTotal || ct.CellsFailed != 0 || ct.CellsCanceled != 0 {
		t.Fatalf("lost or failed cells: %+v", ct)
	}
	if ct.RemoteRuns+ct.DupHits+ct.StoreHits != ct.CellsTotal {
		t.Fatalf("resolution accounting: %+v", ct)
	}
	if ct.Requeues == 0 {
		t.Fatalf("chaos provoked no requeues (wedges + kills should): %+v", ct)
	}
	failedLeases := ct.LeasesExpired + ct.LeasesEvicted + ct.DispatchErrors
	if ct.Requeues+ct.BudgetExhausted > failedLeases {
		t.Fatalf("requeues (%d) + budget failures (%d) exceed failed leases (%d): %+v",
			ct.Requeues, ct.BudgetExhausted, failedLeases, ct)
	}
	if ct.LeasesExpired == 0 {
		t.Fatalf("wedged workers should expire leases: %+v", ct)
	}
	t.Logf("chaos counters: %+v", ct)
}

// TestClusterPoisonedCell: a cell that fails on every worker must burn
// its attempt budget (each failure requeued and backed off) and then
// fail alone — the rest of the job completes.
func TestClusterPoisonedCell(t *testing.T) {
	inner := fakeRun(time.Millisecond)
	run := func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		if cfg.Seed == 13 {
			return nil, fmt.Errorf("poisoned cell")
		}
		return inner(ctx, cfg)
	}
	workers := []*testWorker{startWorker(t, run, nil), startWorker(t, run, nil)}
	cfg := fastClusterConfig()
	cfg.MaxAttempts = 3
	c, ts := startCoordinator(t, cfg, workers...)
	cl := clientFor(ts)

	wl := workload.Names()[0]
	req := service.JobRequest{Cells: []service.CellSpec{
		{Workload: wl, Seed: 1, Refs: 1000},
		{Workload: wl, Seed: 13, Refs: 1000},
		{Workload: wl, Seed: 2, Refs: 1000},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || st.Failed != 1 {
		t.Fatalf("want failed job with 1 failed cell, got %s failed=%d err=%q", st.State, st.Failed, st.Error)
	}
	if st.Results[1].Status != "failed" || st.Results[0].Status != "done" || st.Results[2].Status != "done" {
		t.Fatalf("wrong cells failed: %+v", st.Results)
	}
	ct := c.Counters()
	if ct.BudgetExhausted != 1 || ct.CellsFailed != 1 {
		t.Fatalf("budget accounting: %+v", ct)
	}
	if want := uint64(cfg.MaxAttempts - 1); ct.Requeues != want {
		t.Fatalf("poisoned cell should requeue %d times, counters %+v", want, ct)
	}
}

// TestCoordinatorRestartResumesFromStore: kill the coordinator mid-sweep
// and start a fresh one over the same store and workers; resubmitting
// the sweep completes, with already-computed cells answered from the
// store instead of redispatched.
func TestCoordinatorRestartResumesFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Logger = log.New(io.Discard, "", 0)
	run := fakeRun(5 * time.Millisecond)
	workers := []*testWorker{startWorker(t, run, st), startWorker(t, run, st)}
	req := sweepRequest(24)

	c1 := New(Config{Store: st, Workers: []string{workers[0].addr, workers[1].addr},
		LeaseTTL: 400 * time.Millisecond, ProbeEvery: 50 * time.Millisecond,
		Logger: log.New(io.Discard, "", 0)})
	id, err := c1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until some cells have completed, then kill the coordinator
	// mid-sweep (leases in flight).
	j, err := c1.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if j.Status(false).Completed >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first coordinator made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()

	c2, ts := startCoordinator(t, Config{Store: st, LeaseTTL: 400 * time.Millisecond,
		ProbeEvery: 50 * time.Millisecond}, workers...)
	cl := clientFor(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st2, err = cl.Wait(ctx, st2.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone {
		t.Fatalf("resumed sweep ended %s: %s", st2.State, st2.Error)
	}
	ct := c2.Counters()
	if ct.StoreHits == 0 {
		t.Fatalf("restarted coordinator should resume from the store, counters %+v", ct)
	}
	if st2.Pool.StoreHits == 0 {
		t.Fatalf("job stats should surface store resumption: %+v", st2.Pool)
	}
}

// TestWorkerEvictionAndReadmission: a worker that stops answering is
// evicted after the failure threshold (its queued work survives) and
// readmitted when it recovers.
func TestWorkerEvictionAndReadmission(t *testing.T) {
	run := fakeRun(2 * time.Millisecond)
	w1, w2 := startWorker(t, run, nil), startWorker(t, run, nil)
	cfg := fastClusterConfig()
	c, ts := startCoordinator(t, cfg, w1, w2)

	w2.down.Store(true)
	waitFor(t, 5*time.Second, func() bool {
		for _, ws := range c.workerStatuses() {
			if ws.Addr == w2.addr && !ws.Healthy {
				return true
			}
		}
		return false
	}, "worker eviction")

	// The cluster still works with the evicted worker down.
	cl := clientFor(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, sweepRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("sweep with evicted worker: state=%v err=%v", st.State, err)
	}

	w2.down.Store(false)
	waitFor(t, 5*time.Second, func() bool {
		for _, ws := range c.workerStatuses() {
			if ws.Addr == w2.addr && ws.Healthy {
				return true
			}
		}
		return false
	}, "worker readmission")
	ct := c.Counters()
	if ct.WorkersEvicted == 0 || ct.WorkersReadmitted == 0 {
		t.Fatalf("eviction accounting: %+v", ct)
	}
}

// TestClusterCancel: canceling a job settles every cell and releases the
// workers.
func TestClusterCancel(t *testing.T) {
	run := fakeRun(5 * time.Second) // cells effectively run forever
	w := startWorker(t, run, nil)
	c, ts := startCoordinator(t, fastClusterConfig(), w)
	cl := clientFor(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, sweepRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateCanceled {
		t.Fatalf("want canceled, got %s", st.State)
	}
	waitFor(t, 5*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.leases) == 0 && len(c.queue) == 0
	}, "lease cleanup after cancel")
	if ct := c.Counters(); ct.CellsCanceled == 0 {
		t.Fatalf("cancel accounting: %+v", ct)
	}
}

// TestClusterAdmission: the token bucket rate-limits submissions with
// 429 + Retry-After, and the client seam absorbs it.
func TestClusterAdmission(t *testing.T) {
	run := fakeRun(0)
	w := startWorker(t, run, nil)
	cfg := fastClusterConfig()
	cfg.RatePerSec = 0.5 // one token every 2s
	cfg.Burst = 1
	_, ts := startCoordinator(t, cfg, w)

	req := sweepRequest(2)
	body, _ := json.Marshal(req)
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := post()
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", r1.StatusCode)
	}
	r2 := post()
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: HTTP %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
