package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"seesaw/internal/runner"
	"seesaw/internal/sim"
)

// CellRunRequest is the POST /v1/cells/run body: one cell executed
// synchronously on behalf of a cluster coordinator, under a lease the
// coordinator tracks. The response is an SSE-framed stream — periodic
// "heartbeat" events while the cell runs (each renews the caller's
// lease), then a single terminal "result" event. The transport doubles
// as the failure detector: a crashed worker resets the connection, a
// wedged worker stops heartbeating, and either way the coordinator's
// lease expires and the cell is requeued elsewhere.
type CellRunRequest struct {
	Cell CellSpec `json:"cell"`
	// LeaseID is echoed in every heartbeat so the coordinator can
	// correlate streams; the worker does not interpret it.
	LeaseID string `json:"lease_id,omitempty"`
	// HeartbeatMS is the heartbeat period (default 1000).
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
}

// CellRunResult is the terminal "result" event payload.
type CellRunResult struct {
	LeaseID string      `json:"lease_id,omitempty"`
	Report  *sim.Report `json:"report,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// handleCellRun executes one coordinator-dispatched cell. The cell runs
// on a per-request pool (its own cancellation scope: the coordinator
// abandoning the request — lease expired, job canceled — unwinds the
// simulation at its next poll point) over the server-wide cell
// concurrency bound and shared warmed masters, with the same store
// read-through, timeout, and retry policy as job cells.
func (s *Server) handleCellRun(w http.ResponseWriter, r *http.Request) {
	var req CellRunRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{"bad cell JSON: " + err.Error()})
		return
	}
	cfg, err := req.Cell.Config()
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorBody{err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{"streaming unsupported"})
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		WriteJSON(w, http.StatusServiceUnavailable, ErrorBody{ErrDraining.Error()})
		return
	}
	s.cellsRunning++
	s.mu.Unlock()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	pool := runner.NewWithRunContext(2, s.cellRun).
		WithContext(ctx).
		WithTimeout(s.cfg.CellTimeout).
		WithRetries(s.cfg.Retries)
	if s.cfg.Store != nil {
		pool.WithStore(s.cfg.Store)
	}

	hb := time.Duration(req.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	fut := pool.Submit(cfg)
	done := make(chan struct{})
	go func() {
		fut.Wait()
		close(done)
	}()
	// abandon unwinds the cell once the coordinator is gone, and holds
	// the drain gate until the simulation has actually stopped.
	abandon := func() {
		cancel()
		<-done
		s.finishCellRun(pool)
	}
	tick := time.NewTicker(hb)
	defer tick.Stop()
	alive := true
	for alive {
		select {
		case <-done:
			alive = false
		case <-r.Context().Done():
			abandon()
			return
		case <-tick.C:
			if _, err := fmt.Fprintf(w, "event: heartbeat\ndata: {\"lease_id\":%q}\n\n", req.LeaseID); err != nil {
				abandon()
				return
			}
			fl.Flush()
		}
	}
	rep, err := fut.Wait()
	res := CellRunResult{LeaseID: req.LeaseID, Report: rep}
	if err != nil {
		res.Error = err.Error()
	}
	data, merr := json.Marshal(res)
	if merr != nil {
		data, _ = json.Marshal(CellRunResult{LeaseID: req.LeaseID, Error: "encode result: " + merr.Error()})
	}
	// Settle the counters before the result leaves: once the coordinator
	// holds it, the drain gate and /metrics must already include it.
	s.finishCellRun(pool)
	fmt.Fprintf(w, "event: result\ndata: %s\n\n", data)
	fl.Flush()
}

// finishCellRun folds the request pool's outcome counters into the
// server totals and releases the drain gate.
func (s *Server) finishCellRun(pool *runner.Pool) {
	st := pool.Stats()
	s.mu.Lock()
	s.cellsRunning--
	s.cellTotals.Submitted += st.Submitted
	s.cellTotals.Runs += st.Runs
	s.cellTotals.CacheHits += st.CacheHits
	s.cellTotals.Retries += st.Retries
	s.cellTotals.Failures += st.Failures
	s.cellTotals.StoreHits += st.StoreHits
	s.cellTotals.StorePuts += st.StorePuts
	s.mu.Unlock()
}
