package service

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"seesaw/internal/sim"
	"seesaw/internal/workload"
)

// batchDaemon serves an in-process daemon whose cells report their own
// seed as Cycles, so every result names the cell it belongs to. wrap,
// when non-nil, sits in front of the daemon's handler.
func batchDaemon(t *testing.T, wrap func(http.Handler) http.Handler) *Client {
	t.Helper()
	svc := New(Config{
		Workers: 4,
		Run: func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
			return &sim.Report{Cycles: uint64(cfg.Seed)}, nil
		},
		Logger: log.New(io.Discard, "", 0),
	})
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return NewClient(ts.URL)
}

// seedCell is a cell the daemon answers with Cycles == seed.
func seedCell(t *testing.T, seed int64) sim.Config {
	t.Helper()
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Workload: p, Seed: seed, Refs: 1_000, CacheKind: sim.KindSeesaw, L1Size: 32 << 10}
}

// TestBatchOrderAcrossChunks: a batch larger than one job comes back
// cell by cell in submission order, and any handle's Wait ships it,
// once, even when several goroutines wait at the same time.
func TestBatchOrderAcrossChunks(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	cl := batchDaemon(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				mu.Lock()
				posts++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	n := 2*batchChunk + 37
	b := NewBatch(cl, "order")
	cells := make([]*Cell, n)
	for i := range cells {
		cells[i] = b.Submit(seedCell(t, int64(i+1)))
	}
	// Each waiter starts from the back, so the first Wait to arrive, on
	// one of the last handles, ships the whole batch.
	const waiters = 4
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := n - 1 - w; i >= 0; i -= waiters {
				rep, err := cells[i].Wait()
				if err != nil {
					t.Errorf("cell %d: %v", i, err)
					return
				}
				if rep.Cycles != uint64(i+1) {
					t.Errorf("cell %d got cell %d's report", i, rep.Cycles-1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if want := 3; posts != want {
		t.Errorf("batch of %d cells shipped as %d jobs, want %d", n, posts, want)
	}
}

// TestBatchReusedAfterShipment: cells registered after a shipment ship
// as a second job at the next Wait and return their reports.
func TestBatchReusedAfterShipment(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	cl := batchDaemon(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				mu.Lock()
				posts++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})
	jobs := func() int {
		mu.Lock()
		defer mu.Unlock()
		return posts
	}
	b := NewBatch(cl, "reused")
	check := func(c *Cell, seed int64) {
		t.Helper()
		rep, err := c.Wait()
		if err != nil || rep == nil || rep.Cycles != uint64(seed) {
			t.Fatalf("cell %d returned %v, %v", seed, rep, err)
		}
	}
	first := []*Cell{b.Submit(seedCell(t, 1)), b.Submit(seedCell(t, 2))}
	check(first[1], 2)
	check(first[0], 1)
	second := []*Cell{b.Submit(seedCell(t, 3)), b.Submit(seedCell(t, 4))}
	if n := jobs(); n != 1 {
		t.Fatalf("%d jobs before the second shipment's first Wait, want 1", n)
	}
	check(second[0], 3)
	check(second[1], 4)
	if n := jobs(); n != 2 {
		t.Errorf("two shipments went out as %d jobs, want 2", n)
	}
}

// TestBatchWireRejectFailsOneCell: a config the wire format cannot
// carry fails its own handle at once; its neighbours still run.
func TestBatchWireRejectFailsOneCell(t *testing.T) {
	b := NewBatch(batchDaemon(t, nil), "reject")
	bad := seedCell(t, 2)
	bad.Metrics = &sim.MetricsConfig{EventCap: -1} // counters only: no wire form
	cells := []*Cell{b.Submit(seedCell(t, 1)), b.Submit(bad), b.Submit(seedCell(t, 3))}
	if _, err := cells[1].Wait(); err == nil {
		t.Fatal("counters-only metrics cell did not fail")
	}
	for _, i := range []int{0, 2} {
		rep, err := cells[i].Wait()
		if err != nil {
			t.Fatalf("cell %d failed beside the rejected one: %v", i, err)
		}
		if want := uint64([]int{1, 0, 3}[i]); rep.Cycles != want {
			t.Errorf("cell %d: Cycles = %d, want %d", i, rep.Cycles, want)
		}
	}
}

// TestBatchFailedJobFailsItsChunk: a job the daemon refuses fails
// exactly its own chunk's cells; the other chunks' cells complete.
func TestBatchFailedJobFailsItsChunk(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	cl := batchDaemon(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				mu.Lock()
				posts++
				second := posts == 2
				mu.Unlock()
				if second {
					http.Error(w, `{"error":"refused for the test"}`, http.StatusBadRequest)
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	n := 2*batchChunk + 10
	b := NewBatch(cl, "failed-job")
	cells := make([]*Cell, n)
	for i := range cells {
		cells[i] = b.Submit(seedCell(t, int64(i+1)))
	}
	for i, c := range cells {
		rep, err := c.Wait()
		inFailedChunk := i >= batchChunk && i < 2*batchChunk
		switch {
		case inFailedChunk && err == nil:
			t.Fatalf("cell %d of the refused job succeeded", i)
		case inFailedChunk && !strings.Contains(err.Error(), "refused for the test"):
			t.Fatalf("cell %d: error %v does not carry the job's refusal", i, err)
		case !inFailedChunk && err != nil:
			t.Fatalf("cell %d outside the refused job failed: %v", i, err)
		case !inFailedChunk && rep.Cycles != uint64(i+1):
			t.Fatalf("cell %d got cell %d's report", i, rep.Cycles-1)
		}
	}
}
