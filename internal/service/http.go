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

// Jobs is a backend of the /v1/jobs API. The daemon's Server and the
// cluster's Coordinator both implement it; MountJobs turns either into
// the same HTTP surface, so clients cannot tell them apart.
type Jobs interface {
	// Submit validates and admits one job and returns its id. A
	// validation failure (see JobRequest.Configs) is a 400, a
	// *BusyError a 429 with Retry-After, and ErrDraining a 503.
	Submit(req JobRequest) (string, error)
	// Job returns one job, or ErrNotFound.
	Job(id string) (*Job, error)
	// List returns every job in submission order.
	List() []*Job
	// Cancel cancels one job and returns it, or ErrNotFound.
	Cancel(id string) (*Job, error)
}

// ErrDraining is returned by Submit once Drain has begun; mapped to 503.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// ErrNotFound is returned for unknown job ids; mapped to 404.
var ErrNotFound = errors.New("service: no such job")

// BusyError is Submit's 429: the backend is at capacity and asks the
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

// WriteJSON writes v as indented JSON with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// MountJobs registers the /v1/jobs API over jobs on mux:
//
//	POST   /v1/jobs              submit; 202, 400, 429 + Retry-After, or 503 while draining
//	GET    /v1/jobs              list job summaries
//	GET    /v1/jobs/{id}         status (+results unless results=0)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/jobs/{id}/stream  SSE progress (Last-Event-ID resume)
func MountJobs(mux *http.ServeMux, jobs Jobs) {
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req JobRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorBody{"bad job JSON: " + err.Error()})
			return
		}
		id, err := jobs.Submit(req)
		if err == nil {
			j, _ := jobs.Job(id)
			WriteJSON(w, http.StatusAccepted, j.Status(false))
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
		WriteJSON(w, code, ErrorBody{err.Error()})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		list := jobs.List()
		out := make([]JobStatus, len(list))
		for i, j := range list {
			out[i] = j.Status(false)
		}
		WriteJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := jobs.Job(r.PathValue("id"))
		if err != nil {
			WriteJSON(w, http.StatusNotFound, ErrorBody{err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, j.Status(r.URL.Query().Get("results") != "0"))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := jobs.Cancel(r.PathValue("id"))
		if err != nil {
			WriteJSON(w, http.StatusNotFound, ErrorBody{err.Error()})
			return
		}
		WriteJSON(w, http.StatusOK, j.Status(false))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		j, err := jobs.Job(r.PathValue("id"))
		if err != nil {
			WriteJSON(w, http.StatusNotFound, ErrorBody{err.Error()})
			return
		}
		stream(w, r, j)
	})
}

// stream serves a job's progress as Server-Sent Events: the history
// first (late subscribers replay everything), then live events until
// the job has ended and nothing is left to send, or the client
// disconnects. Every event carries its history position as the SSE id,
// and a client reconnecting with Last-Event-ID: N is resumed at event
// N+1 — the standard SSE resume contract, so a dropped stream loses
// nothing.
func stream(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, ErrorBody{"streaming unsupported"})
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
