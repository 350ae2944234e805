package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// ErrDraining is returned by Submit once Drain has begun; mapped to 503.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// ErrNotFound is returned for unknown job ids; mapped to 404.
var ErrNotFound = errors.New("service: no such job")

// BusyError is Submit's 429: the server is at capacity and asks the
// client to come back after RetryAfter.
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string { return e.Reason }

// badRequestError marks validation failures; mapped to 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// ErrorBody is every non-2xx JSON payload.
type ErrorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as indented JSON with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit serves POST /v1/jobs: 202, 400 on a validation failure (see
// JobRequest.Configs), 429 + Retry-After on a *BusyError, and 503 while
// draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorBody{"bad job JSON: " + err.Error()})
		return
	}
	id, err := s.Submit(req)
	if err == nil {
		j, _ := s.Job(id)
		writeJSON(w, http.StatusAccepted, j.Status(false))
		return
	}
	var busy *BusyError
	var bad *badRequestError
	code := http.StatusInternalServerError
	switch {
	case errors.As(err, &busy):
		secs := int(math.Ceil(busy.RetryAfter.Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(max(secs, 1)))
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.As(err, &bad):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, ErrorBody{err.Error()})
}

// handleList serves GET /v1/jobs: every job's summary in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.List()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus serves GET /v1/jobs/{id}, with results unless results=0.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Status(r.URL.Query().Get("results") != "0"))
}

// handleCancel serves DELETE /v1/jobs/{id}.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, j.Status(false))
}

// handleStream serves GET /v1/jobs/{id}/stream, a job's progress as
// Server-Sent Events: the history first (late subscribers replay
// everything), then live events until the job has ended and nothing is
// left to send, or the client disconnects. Every event carries its
// history position as the SSE id, and a client reconnecting with
// Last-Event-ID: N is resumed at event N+1 — the standard SSE resume
// contract, so a dropped stream loses nothing.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorBody{err.Error()})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, ErrorBody{"streaming unsupported"})
		return
	}
	seq, _ := strconv.Atoi(r.Header.Get("Last-Event-ID"))
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, ended, wake := j.since(seq)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			fl.Flush()
			if ev.Type == "done" {
				return
			}
			seq = ev.Seq
		}
		if ended {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}
