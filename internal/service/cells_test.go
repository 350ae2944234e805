package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/sim"
)

// runCell POSTs one cell and consumes the SSE response, which must be
// a 200 text/event-stream carrying exactly one "result" event.
func runCell(t *testing.T, url string, cell CellSpec) CellRunResult {
	t.Helper()
	body, _ := json.Marshal(CellRunRequest{Cell: cell})
	resp, err := http.Post(url+"/v1/cells/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells/run status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("cells/run content type %q", ct)
	}
	var res CellRunResult
	var events []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			events = append(events, line[len("event: "):])
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &res); err != nil {
				t.Fatalf("bad result %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0] != "result" {
		t.Fatalf("cells/run events %q, want exactly one result", events)
	}
	return res
}

// TestCellRunResult: a cell answers with one result event carrying the
// report; an identical request is a store hit, and the totals and the
// drain gate account for both.
func TestCellRunResult(t *testing.T) {
	s, ts, runs := newTestServer(t, Config{QueueDepth: 4, Workers: 2,
		Run: func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
			return &sim.Report{SchemaVersion: sim.SchemaVersion, Design: "fake", Workload: cfg.Workload.Name}, nil
		}})

	cell := CellSpec{Workload: "redis", Refs: 1000, Seed: 7, MemMB: 256}
	res := runCell(t, ts.URL, cell)
	if res.Error != "" || res.Report == nil {
		t.Fatalf("result %+v, want no error and a report", res)
	}
	if res.Report.Workload != "redis" {
		t.Errorf("report workload %q", res.Report.Workload)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("executed %d cells, want 1", got)
	}

	// An identical request is answered by the shared store read-through:
	// no second simulation, and the totals account for the hit.
	res2 := runCell(t, ts.URL, cell)
	if res2.Error != "" || res2.Report == nil {
		t.Fatalf("store-hit result %+v", res2)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("repeat executed %d extra cells, want 0", got-1)
	}
	s.mu.Lock()
	running, totals := s.cellsRunning, s.cellTotals
	s.mu.Unlock()
	if running != 0 {
		t.Errorf("cells_running %d after both requests finished, want 0", running)
	}
	if totals.Runs != 1 || totals.StoreHits != 1 || totals.Submitted != 2 {
		t.Errorf("cell totals %+v, want runs=1 store_hits=1 submitted=2", totals)
	}
}

// TestCellRunFailure: a cell whose simulation panics still terminates
// the stream with a result event, carrying the error string instead of
// a report, and the failure is folded into the server totals.
func TestCellRunFailure(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1,
		Run: func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
			panic("boom")
		}})
	res := runCell(t, ts.URL, CellSpec{Workload: "redis", Refs: 1000, MemMB: 256})
	if res.Report != nil || !strings.Contains(res.Error, "boom") {
		t.Fatalf("result %+v, want nil report and a boom error", res)
	}
	s.mu.Lock()
	failures := s.cellTotals.Failures
	s.mu.Unlock()
	if failures != 1 {
		t.Errorf("cell totals record %d failures, want 1", failures)
	}
}

// TestCellRunBadRequests: malformed JSON and unmappable specs are
// rejected with 400 before any stream starts; a draining server refuses
// new cells with 503.
func TestCellRunBadRequests(t *testing.T) {
	s, ts, runs := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	for _, tc := range []struct {
		name, body string
	}{
		{"bad JSON", "{not json"},
		{"missing workload", `{"cell":{"refs":1000}}`},
		{"unknown cache", `{"cell":{"workload":"redis","refs":1000,"cache":"vivt"}}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/cells/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/cells/run", "application/json",
		strings.NewReader(`{"cell":{"workload":"redis","refs":1000}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server: status %d, want 503", resp.StatusCode)
	}
	if runs.Load() != 0 {
		t.Errorf("rejected requests executed %d cells", runs.Load())
	}
}

// TestCellRunClientDisconnect: a client hanging up cancels the
// in-flight simulation and releases the drain gate — while a Drain
// issued mid-cell waits for exactly that unwind before declaring the
// server idle.
func TestCellRunClientDisconnect(t *testing.T) {
	started := make(chan struct{})
	var canceled atomic.Bool
	s, ts, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1,
		Run: func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
			close(started)
			<-ctx.Done()
			canceled.Store(true)
			return nil, ctx.Err()
		}})

	body, _ := json.Marshal(CellRunRequest{Cell: CellSpec{Workload: "redis", Refs: 1000, MemMB: 256}})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/cells/run", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	<-started // the cell is in flight

	// Drain must not report idle while the cell is running.
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v while a cell was running", err)
	case <-time.After(100 * time.Millisecond):
	}

	cancel()
	if err := <-drained; err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
	if !canceled.Load() {
		t.Error("abandoned cell's context was never canceled")
	}
	s.mu.Lock()
	running := s.cellsRunning
	s.mu.Unlock()
	if running != 0 {
		t.Errorf("cells_running %d after disconnect, want 0", running)
	}
}
