package runner

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"seesaw/internal/sim"
	"seesaw/internal/workload"
)

// waitGoroutines polls until the process goroutine count drops to at
// most want, failing the test after a generous deadline. A goleak-style
// count comparison: any worker or attempt goroutine still parked in a
// cell shows up here.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalizers so counts settle
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("leaked goroutines: %d running, want <= %d\n%s", n, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimeoutDoesNotLeak: a timed-out cell must not leave its attempt
// goroutine (or the simulation state it pins) behind. The injected cell
// blocks until its context is canceled — exactly the shape of a hung
// simulation — so if the pool's timeout did not propagate cancellation,
// the goroutine would park forever and the count below would never
// recover.
func TestTimeoutDoesNotLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}).WithTimeout(20 * time.Millisecond)
	var futs []*Future
	for i := 0; i < 4; i++ {
		cfg := sim.Config{Workload: workload.Profile{Name: "hang"}, Seed: int64(i)}
		futs = append(futs, pool.Submit(cfg))
	}
	for _, f := range futs {
		_, err := f.Wait()
		var ce *CellError
		if !errors.As(err, &ce) || ce.Timeout == 0 {
			t.Fatalf("expected timeout CellError, got %v", err)
		}
	}
	waitGoroutines(t, before)
}

// TestTimeoutDoesNotLeakRealSim: the same property against the real
// simulator — sim.RunContext's reference loop must poll its context, or
// the timed-out cell's goroutine (and its entire memory system) survives
// the timeout.
func TestTimeoutDoesNotLeakRealSim(t *testing.T) {
	if testing.Short() {
		t.Skip("real-simulator leak check")
	}
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	pool := New(1).WithTimeout(30 * time.Millisecond)
	// Far more references than 30ms allows, so the deadline fires mid-loop.
	fut := pool.Submit(sim.Config{Workload: p, Seed: 1, Refs: 50_000_000, MemBytes: 256 << 20})
	_, err = fut.Wait()
	var ce *CellError
	if !errors.As(err, &ce) || ce.Timeout == 0 {
		t.Fatalf("expected timeout CellError, got %v", err)
	}
	waitGoroutines(t, before)
}

// TestPoolContextCancel: canceling the pool's context fails queued cells
// with the context error (not a retriable CellError) and unwinds running
// ones; retries are not burned on cancellation.
func TestPoolContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 16)
	// Two workers: a serial pool runs cells inline in Submit, which would
	// block this test's goroutine before it can cancel.
	pool := NewWithRunContext(2, func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}).WithContext(ctx).WithRetries(3)
	fut := pool.Submit(sim.Config{Workload: workload.Profile{Name: "w"}, Seed: 1})
	go fut.Wait() // the first Wait starts the cell's batch
	<-started
	cancel()
	_, err := fut.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled pool returned %v, want context.Canceled", err)
	}
	// A cell submitted after cancellation must fail fast without running.
	fut2 := pool.Submit(sim.Config{Workload: workload.Profile{Name: "w"}, Seed: 2})
	if _, err := fut2.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel submit returned %v, want context.Canceled", err)
	}
	st := pool.Stats()
	if st.Retries != 0 {
		t.Errorf("cancellation burned %d retries", st.Retries)
	}
}

// fakeStore is an in-memory ResultStore for read-through tests.
type fakeStore struct {
	m    map[string]*sim.Report
	puts int
}

func (s *fakeStore) Get(cfg sim.Config) (*sim.Report, bool) {
	key, ok := cfg.CanonicalKey()
	if !ok {
		return nil, false
	}
	r, ok := s.m[key]
	return r, ok
}

func (s *fakeStore) Put(cfg sim.Config, r *sim.Report) error {
	key, ok := cfg.CanonicalKey()
	if !ok {
		return nil
	}
	s.m[key] = r
	s.puts++
	return nil
}

// TestStoreReadThrough: a store hit answers the cell with zero
// executions; a miss executes once and persists, so a second pool (a
// restart, another job) serves the same cell from the store.
func TestStoreReadThrough(t *testing.T) {
	st := &fakeStore{m: make(map[string]*sim.Report)}
	cfg := sim.Config{Workload: workload.Profile{Name: "w"}, Seed: 7}
	runs := 0
	newPool := func() *Pool {
		return NewWithRunContext(1, func(ctx context.Context, c sim.Config) (*sim.Report, error) {
			runs++
			return &sim.Report{Design: "fake", Workload: c.Workload.Name}, nil
		}).WithStore(st)
	}
	p1 := newPool()
	if _, err := p1.Submit(cfg).Wait(); err != nil {
		t.Fatal(err)
	}
	if s := p1.Stats(); runs != 1 || s.Runs != 1 || s.StoreHits != 0 || s.StorePuts != 1 {
		t.Fatalf("first pool: runs=%d stats=%+v", runs, s)
	}
	p2 := newPool() // fresh pool: empty in-memory cache, shared store
	r, err := p2.Submit(cfg).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Design != "fake" {
		t.Errorf("store served wrong report: %+v", r)
	}
	if s := p2.Stats(); runs != 1 || s.Runs != 0 || s.StoreHits != 1 {
		t.Fatalf("second pool did not read through the store: runs=%d stats=%+v", runs, s)
	}
}
