package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// instantSleeps replaces the client's wait seam with a recorder.
func instantSleeps(c *Client) *[]time.Duration {
	var waits []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return ctx.Err()
	}
	return &waits
}

// TestClientSubmitHonorsRetryAfter: 429s are paced out per the server's
// Retry-After hint, not surfaced as failures.
func TestClientSubmitHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"c000001","state":"running"}`)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL)
	waits := instantSleeps(cl)
	st, err := cl.Submit(context.Background(), JobRequest{Cells: []CellSpec{{Workload: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "c000001" {
		t.Fatalf("got %+v", st)
	}
	if len(*waits) != 2 || (*waits)[0] != 3*time.Second || (*waits)[1] != 3*time.Second {
		t.Fatalf("waits = %v, want [3s 3s]", *waits)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d submits, want 3", calls.Load())
	}
}

// TestClientSubmitGivesUpEventually: a server that never admits exhausts
// submitAttempts.
func TestClientSubmitGivesUpEventually(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"nope"}`)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL)
	instantSleeps(cl)
	if _, err := cl.Submit(context.Background(), JobRequest{Cells: []CellSpec{{Workload: "x"}}}); err == nil {
		t.Fatal("expected rate-limit exhaustion error")
	}
}

// TestClientStreamReconnects: a stream severed mid-job reconnects with
// Last-Event-ID and the caller sees every event exactly once.
func TestClientStreamReconnects(t *testing.T) {
	events := []Event{
		{Seq: 1, Type: "state", State: "running"},
		{Seq: 2, Type: "cell", Index: 0, OK: true},
		{Seq: 3, Type: "cell", Index: 1, OK: true},
		{Seq: 4, Type: "done", State: "done"},
	}
	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := conns.Add(1)
		last := 0
		fmt.Sscanf(r.Header.Get("Last-Event-ID"), "%d", &last)
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for _, ev := range events {
			if ev.Seq <= last {
				continue
			}
			if n == 1 && ev.Seq > 2 {
				return // first connection dies after two events
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: {\"type\":%q,\"index\":%d}\n\n", ev.Seq, ev.Type, ev.Type, ev.Index)
			fl.Flush()
		}
	}))
	defer ts.Close()
	cl := NewClient(ts.URL)
	instantSleeps(cl)
	var got []int
	if err := cl.Stream(context.Background(), "c000001", func(ev Event) {
		got = append(got, ev.Seq)
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4]" {
		t.Fatalf("events seen %v, want [1 2 3 4] exactly once each", got)
	}
	if conns.Load() != 2 {
		t.Fatalf("stream used %d connections, want 2", conns.Load())
	}
	hdrsSeen := conns.Load()
	_ = hdrsSeen
}

// TestClientStreamStopsOnNotFound: a 404 is terminal, not retried.
func TestClientStreamStopsOnNotFound(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no such job"}`)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL)
	instantSleeps(cl)
	err := cl.Stream(context.Background(), "nope", func(Event) {})
	if err == nil {
		t.Fatal("expected 404 error")
	}
}
