package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"seesaw/internal/runner"
	"seesaw/internal/sim"
)

// CellRunRequest is the POST /v1/cells/run body: one cell executed
// synchronously. The response is a 200 text/event-stream whose one
// "result" event carries the CellRunResult.
type CellRunRequest struct {
	Cell CellSpec `json:"cell"`
}

// CellRunResult is the "result" event payload: the report, or the
// cell's error.
type CellRunResult struct {
	Report *sim.Report `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// handleCellRun executes one cell on a per-request pool over the
// server-wide cell concurrency bound and shared warmed masters, with the
// same store read-through, timeout, and retry policy as job cells. The
// cell runs under the request's context, so a client that hangs up
// unwinds the simulation at its next poll point.
func (s *Server) handleCellRun(w http.ResponseWriter, r *http.Request) {
	var req CellRunRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{"bad cell JSON: " + err.Error()})
		return
	}
	cfg, err := req.Cell.Config()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, ErrorBody{"streaming unsupported"})
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{ErrDraining.Error()})
		return
	}
	s.cellsRunning++
	s.mu.Unlock()

	pool := runner.NewWithRunContext(2, s.cellRun).
		WithContext(r.Context()).
		WithTimeout(s.cfg.CellTimeout).
		WithRetries(s.cfg.Retries)
	if s.cfg.Store != nil {
		pool.WithStore(s.cfg.Store)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	rep, err := pool.Submit(cfg).Wait()
	res := CellRunResult{Report: rep}
	if err != nil {
		res.Error = err.Error()
	}
	data, merr := json.Marshal(res)
	if merr != nil {
		data, _ = json.Marshal(CellRunResult{Error: "encode result: " + merr.Error()})
	}
	// Settle the counters before the result leaves: once the client
	// holds it, the drain gate and /metrics must already include it.
	s.finishCellRun(pool)
	fmt.Fprintf(w, "event: result\ndata: %s\n\n", data)
	fl.Flush()
}

// finishCellRun folds the request pool's outcome counters into the
// server totals and releases the drain gate.
func (s *Server) finishCellRun(pool *runner.Pool) {
	st := wireStats(pool)
	s.mu.Lock()
	s.cellsRunning--
	s.cellTotals.add(st)
	s.mu.Unlock()
}
