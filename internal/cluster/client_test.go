package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/service"
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
	st, err := cl.Submit(context.Background(), service.JobRequest{Cells: []service.CellSpec{{Workload: "x"}}})
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
// SubmitAttempts.
func TestClientSubmitGivesUpEventually(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"nope"}`)
	}))
	defer ts.Close()
	cl := NewClient(ts.URL)
	cl.SubmitAttempts = 3
	instantSleeps(cl)
	if _, err := cl.Submit(context.Background(), service.JobRequest{Cells: []service.CellSpec{{Workload: "x"}}}); err == nil {
		t.Fatal("expected rate-limit exhaustion error")
	}
}

// TestClientStreamReconnects: a stream severed mid-job reconnects with
// Last-Event-ID and the caller sees every event exactly once.
func TestClientStreamReconnects(t *testing.T) {
	events := []service.Event{
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
	if err := cl.Stream(context.Background(), "c000001", func(ev service.Event) {
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
	err := cl.Stream(context.Background(), "nope", func(service.Event) {})
	if err == nil {
		t.Fatal("expected 404 error")
	}
}

// TestTokenBucket exercises refill arithmetic on a fake clock.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	b := newTokenBucket(2, 2) // 2/sec, burst 2
	b.now = func() time.Time { return now }
	b.last = now
	if ok, _ := b.take(); !ok {
		t.Fatal("burst token 1 refused")
	}
	if ok, _ := b.take(); !ok {
		t.Fatal("burst token 2 refused")
	}
	ok, retry := b.take()
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > 500*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 500ms]", retry)
	}
	now = now.Add(time.Second) // refills 2 tokens
	if ok, _ := b.take(); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := b.take(); !ok {
		t.Fatal("second refilled token refused")
	}
	if ok, _ := b.take(); ok {
		t.Fatal("over-refilled past burst")
	}
}

// TestRouters exercises the affinity policy and its least-loaded spill
// over a hand-built registry.
func TestRouters(t *testing.T) {
	c := &Coordinator{workers: map[string]*worker{}, cfg: Config{}.withDefaults()}
	add := func(addr string, slots, active int, healthy bool) *worker {
		w := &worker{addr: addr, slots: slots, active: active, healthy: healthy}
		c.workers[addr] = w
		c.order = append(c.order, addr)
		return w
	}
	w1 := add("a:1", 2, 2, true)  // full
	w2 := add("b:1", 4, 1, true)  // 3 free
	w3 := add("c:1", 2, 0, false) // dead
	w4 := add("d:1", 2, 1, true)  // 1 free

	// Unsigned cells spill to the worker with the most free slots (a is
	// full, c dead).
	a := newAffinity()
	if got := a.pick(c, &unit{}); got != w2 {
		t.Fatalf("spill picked %v", got)
	}

	// Signed cells: the first elects an owner; followers stick to it;
	// owner saturation means wait; owner death re-elects.
	su := &unit{hasSig: true}
	su.sig.Seed = 7
	if got := a.pick(c, su); got != w2 {
		t.Fatalf("affinity elected %v", got)
	}
	w2.active = w2.slots
	if got := a.pick(c, su); got != nil {
		t.Fatalf("affinity should wait for saturated owner, picked %v", got)
	}
	w2.active = 1
	if got := a.pick(c, su); got != w2 {
		t.Fatal("affinity abandoned its owner")
	}
	w2.healthy = false
	if got := a.pick(c, su); got != w4 {
		t.Fatalf("affinity failed to re-home after owner death, picked %v", got)
	}
	if c.counters.AffinityReassigned == 0 {
		t.Fatal("reassignment not counted")
	}
	_, _ = w1, w3
}
