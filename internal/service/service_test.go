package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seesaw/internal/sim"
	"seesaw/internal/store"
)

// newTestServer builds a server over a fresh disk store with a counting
// run function, so tests can assert exactly how many cells were actually
// simulated.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	inner := cfg.Run
	if inner == nil {
		inner = sim.RunContext
	}
	cfg.Run = func(ctx context.Context, c sim.Config) (*sim.Report, error) {
		runs.Add(1)
		return inner(ctx, c)
	}
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.Logger = log.New(io.Discard, "", 0)
		cfg.Store = st
	}
	cfg.Logger = log.New(io.Discard, "", 0)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, &runs
}

// postJob submits a job and returns the decoded status and raw response.
func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &st)
	return resp, st
}

// waitDone polls the job until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad status JSON: %v\n%s", err, data)
		}
		if Terminal(st.State) {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// rawResults extracts each cell's report as raw JSON for byte-level
// comparison.
func rawResults(t *testing.T, statusJSON []byte) []json.RawMessage {
	t.Helper()
	var st struct {
		State   string `json:"state"`
		Results []struct {
			Status string          `json:"status"`
			Report json.RawMessage `json:"report"`
		} `json:"results"`
	}
	if err := json.Unmarshal(statusJSON, &st); err != nil {
		t.Fatal(err)
	}
	var out []json.RawMessage
	for i, r := range st.Results {
		if r.Status != "done" {
			t.Fatalf("cell %d status %q in %s job", i, r.Status, st.State)
		}
		out = append(out, r.Report)
	}
	return out
}

// threeCellJob is the acceptance sweep: three distinct real-simulator
// cells, small enough to run in test time.
func threeCellJob() JobRequest {
	return JobRequest{
		Label: "e2e",
		Cells: []CellSpec{
			{Workload: "redis", Cache: "baseline", Refs: 2000, Seed: 42, MemMB: 256, EpochRefs: 500},
			{Workload: "redis", Cache: "seesaw", Refs: 2000, Seed: 42, MemMB: 256, EpochRefs: 500},
			{Workload: "mcf", Cache: "seesaw", Refs: 2000, Seed: 42, MemMB: 256, EpochRefs: 500},
		},
	}
}

// TestEndToEndJobWithStoreDedup is the acceptance path: submit a
// 3-config sweep over HTTP, stream its progress events, fetch results;
// then resubmit the identical job and require byte-identical reports
// served entirely from the content-addressed store — zero additional
// sim runs, asserted via the run counter.
func TestEndToEndJobWithStoreDedup(t *testing.T) {
	s, ts, runs := newTestServer(t, Config{QueueDepth: 4, Workers: 2})
	_ = s

	resp, st := postJob(t, ts, threeCellJob())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if st.ID == "" || st.Cells != 3 {
		t.Fatalf("submit status: %+v", st)
	}

	// Stream progress while the job runs: expect one state event, three
	// cell events (with metrics-derived progress), one done event.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var cellEvents, doneEvents int
	scanner := bufio.NewScanner(sresp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "cell":
			cellEvents++
			if !ev.OK {
				t.Errorf("cell %d failed: %s", ev.Index, ev.Error)
			}
			if ev.Refs == 0 || ev.Epochs == 0 {
				t.Errorf("cell event missing epoch-series progress: %+v", ev)
			}
		case "done":
			doneEvents++
		}
		if ev.Type == "done" {
			break
		}
	}
	if cellEvents != 3 || doneEvents != 1 {
		t.Fatalf("stream saw %d cell events, %d done events", cellEvents, doneEvents)
	}

	first := waitDone(t, ts, st.ID)
	if got := runs.Load(); got != 3 {
		t.Fatalf("first job executed %d cells, want 3", got)
	}
	firstReports := rawResults(t, first)

	// Identical resubmission: a fresh job, a fresh pool — everything
	// must come from the disk store.
	resp2, st2 := postJob(t, ts, threeCellJob())
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp2.StatusCode)
	}
	second := waitDone(t, ts, st2.ID)
	if got := runs.Load(); got != 3 {
		t.Fatalf("resubmission executed %d extra cells, want 0 (run counter %d)", got-3, got)
	}
	secondReports := rawResults(t, second)
	for i := range firstReports {
		if !bytes.Equal(firstReports[i], secondReports[i]) {
			t.Errorf("cell %d report not byte-identical across store round-trip:\n%.200s...\n%.200s...",
				i, firstReports[i], secondReports[i])
		}
	}
	var fin JobStatus
	json.Unmarshal(second, &fin)
	if fin.Pool.StoreHits != 3 || fin.Pool.Runs != 0 {
		t.Errorf("resubmission pool stats %+v, want store_hits=3 runs=0", fin.Pool)
	}
}

// blockingRun returns a run function that signals start and blocks until
// released or canceled.
func blockingRun(started chan<- string, release <-chan struct{}) func(context.Context, sim.Config) (*sim.Report, error) {
	return func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		select {
		case started <- cfg.Workload.Name:
		default:
		}
		select {
		case <-release:
			return &sim.Report{SchemaVersion: sim.SchemaVersion, Design: "fake", Workload: cfg.Workload.Name}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func oneCell(seed int64) JobRequest {
	return JobRequest{Cells: []CellSpec{{Workload: "redis", Refs: 1000, Seed: seed, MemMB: 256}}}
}

// TestBackpressure429: a queue filled past capacity returns 429 with a
// Retry-After hint while earlier jobs are unaffected.
func TestBackpressure429(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	_, ts, _ := newTestServer(t, Config{
		QueueDepth: 1, JobConcurrency: 1, Workers: 1,
		Run: blockingRun(started, release),
	})
	// Job 1 occupies the dispatcher; job 2 fills the depth-1 queue.
	resp1, st1 := postJob(t, ts, oneCell(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job1: %d", resp1.StatusCode)
	}
	<-started // job 1 is running, not queued
	resp2, _ := postJob(t, ts, oneCell(2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job2: %d", resp2.StatusCode)
	}
	resp3, _ := postJob(t, ts, oneCell(3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job3: %d, want 429", resp3.StatusCode)
	}
	ra := resp3.Header.Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", ra)
	}
	close(release)
	waitDone(t, ts, st1.ID)
}

// TestCancelJob: DELETE cancels the job's context; a blocked cell
// unwinds with the context error and the job lands in canceled.
func TestCancelJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, ts, _ := newTestServer(t, Config{QueueDepth: 2, Workers: 1, Run: blockingRun(started, release)})
	_, st := postJob(t, ts, oneCell(1))
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	final := waitDone(t, ts, st.ID)
	var fin JobStatus
	json.Unmarshal(final, &fin)
	if fin.State != StateCanceled {
		t.Fatalf("state %q, want canceled", fin.State)
	}
}

// TestDrain: in-flight jobs finish during drain, and new submissions are
// refused with 503 — the SIGTERM path of seesaw-served.
func TestDrain(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	srv, ts, _ := newTestServer(t, Config{QueueDepth: 2, Workers: 1, Run: blockingRun(started, release)})
	_, st := postJob(t, ts, oneCell(1))
	<-started
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	// Wait for Drain to flip intake off, then verify 503. Posting before
	// the flip would admit a job whose blocking cell never gets released.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		draining := srv.draining
		srv.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Drain never turned intake off")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, _ := postJob(t, ts, oneCell(99)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a job (status %d)", resp.StatusCode)
	}
	release <- struct{}{} // let the in-flight job finish cleanly
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := waitDone(t, ts, st.ID)
	var fin JobStatus
	json.Unmarshal(final, &fin)
	if fin.State != StateDone {
		t.Fatalf("in-flight job drained to %q, want done", fin.State)
	}
}

// TestValidation400: a bad cell (unknown workload, impossible geometry)
// is rejected with 400 and an error naming the cell.
func TestValidation400(t *testing.T) {
	_, ts, runs := newTestServer(t, Config{QueueDepth: 2})
	for _, req := range []JobRequest{
		{Cells: []CellSpec{{Workload: "no-such-workload"}}},
		{Cells: []CellSpec{{Workload: "redis", Cache: "vivt"}}},
		{Cells: []CellSpec{{Workload: "redis", Memhog: 2.0}}},
		{Cells: []CellSpec{{Workload: "redis", SizeKB: 7}}},
		{Cells: []CellSpec{{Workload: "redis", Faults: "no-such-schedule"}}},
		{},
	} {
		resp, _ := postJob(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %+v: %d, want 400", req, resp.StatusCode)
		}
	}
	if runs.Load() != 0 {
		t.Errorf("invalid jobs executed %d cells", runs.Load())
	}
}

// TestHealthAndMetrics: the liveness and Prometheus endpoints respond
// and carry the service gauges.
func TestHealthAndMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueDepth: 2, Workers: 1})
	_, st := postJob(t, ts, oneCell(1))
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h healthBody
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if h.Status != "ok" || h.Jobs != 1 || h.Store == nil {
		t.Fatalf("health %+v", h)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"seesaw_service_jobs_done_total 1",
		"seesaw_service_cells_executed_total 1",
		"seesaw_service_store_puts_total 1",
		"seesaw_refs_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Unknown job id: 404.
	resp, _ = http.Get(ts.URL + "/v1/jobs/j999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// TestListJobs: the listing shows every job in submission order without
// per-cell reports.
func TestListJobs(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueDepth: 4, Workers: 1})
	_, st1 := postJob(t, ts, oneCell(1))
	waitDone(t, ts, st1.ID)
	_, st2 := postJob(t, ts, oneCell(2))
	waitDone(t, ts, st2.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != st1.ID || list[1].ID != st2.ID {
		t.Fatalf("listing %+v", list)
	}
	if len(list[0].Results) != 0 {
		t.Errorf("listing carries results")
	}
}

// TestDrainRacesCancel: Drain waiting out in-flight jobs while clients
// concurrently DELETE those same jobs must converge — every cancel is
// honored, the drain completes (cancellation is how blocked cells
// unwind), and intake stays closed afterwards. This is the shutdown
// path of a busy deployment: an operator signals the daemon while users
// are still tearing down their own work.
func TestDrainRacesCancel(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{
		QueueDepth: 16, Workers: 1, JobConcurrency: 2,
		Run: func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
			<-ctx.Done() // cells finish only when their job is canceled
			return nil, ctx.Err()
		},
	})
	var ids []string
	for i := 0; i < 6; i++ {
		resp, st := postJob(t, ts, oneCell(int64(i)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("cancel %s: HTTP %d", id, resp.StatusCode)
			}
		}(id)
	}
	wg.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain racing cancels: %v", err)
	}
	for _, id := range ids {
		var fin JobStatus
		json.Unmarshal(waitDone(t, ts, id), &fin)
		if fin.State != StateCanceled {
			t.Errorf("job %s drained to %q, want canceled", id, fin.State)
		}
	}
	if resp, _ := postJob(t, ts, oneCell(99)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drained server answered submit with HTTP %d, want 503", resp.StatusCode)
	}
}

// waitEnded blocks until j has published its terminal event.
func waitEnded(j *Job) {
	for {
		_, ended, wake := j.since(0)
		if ended {
			return
		}
		<-wake
	}
}

// eventTypes lists j's published event types in order.
func eventTypes(j *Job) []string {
	evs, _, _ := j.since(0)
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
	}
	return types
}

// TestDoneIsCounted: a job publishes "done" only after the server has
// counted it, so a client that has seen "done" finds the job in the
// outcome counters and pool totals and no longer in the running gauge.
// The jobs run one at a time and instantly, so each "done" races the
// dispatcher's bookkeeping.
func TestDoneIsCounted(t *testing.T) {
	s := New(Config{Workers: 1, Logger: log.New(io.Discard, "", 0),
		Run: func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
			return &sim.Report{SchemaVersion: sim.SchemaVersion, Workload: cfg.Workload.Name}, nil
		}})
	defer s.Close()
	const jobs = 2000
	for k := 1; k <= jobs; k++ {
		id, err := s.Submit(oneCell(int64(k)))
		if err != nil {
			t.Fatal(err)
		}
		j, _ := s.Job(id)
		waitEnded(j)
		s.mu.Lock()
		running, queued, done, submitted := s.running, s.queued, s.jobsDone, s.poolTotals.Submitted
		s.mu.Unlock()
		if running != 0 || queued != 0 || done != uint64(k) || submitted != uint64(k) {
			t.Fatalf("after job %d's done: running=%d queued=%d jobs_done=%d cells_submitted=%d, want 0 0 %d %d",
				k, running, queued, done, submitted, k, k)
		}
	}
}

// TestCancelQueuedJob: DELETE on a queued job ends it at once — its
// cells settle with the cancellation before "done", which is its last
// event, and /metrics and /healthz count it before DELETE returns — and
// the dispatcher that pops it later skips it.
func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, ts, runs := newTestServer(t, Config{QueueDepth: 4, Workers: 1, Run: blockingRun(started, release)})
	_, blocker := postJob(t, ts, oneCell(1))
	<-started
	_, queued := postJob(t, ts, JobRequest{Cells: []CellSpec{
		{Workload: "redis", Refs: 1000, Seed: 2, MemMB: 256},
		{Workload: "redis", Refs: 1000, Seed: 3, MemMB: 256},
	}})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateCanceled || st.Failed != 2 {
		t.Fatalf("DELETE of a queued job answered %+v, want canceled with 2 failed cells", st)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"seesaw_service_jobs_canceled_total 1", "seesaw_service_jobs_queued 0"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics right after DELETE lack %q", want)
		}
	}
	if h := getHealth(t, ts.URL); h.Queued != 0 || h.Running != 1 {
		t.Errorf("healthz right after DELETE: queued=%d running=%d, want 0 1", h.Queued, h.Running)
	}
	j, _ := s.Job(queued.ID)
	want := "[cell cell done]"
	if got := fmt.Sprint(eventTypes(j)); got != want {
		t.Fatalf("canceled queued job's events %s, want %s", got, want)
	}

	// Once a later job has finished, the dispatcher has popped the
	// canceled one; it must have run nothing and published nothing.
	close(release)
	waitDone(t, ts, blocker.ID)
	_, after := postJob(t, ts, oneCell(4))
	waitDone(t, ts, after.ID)
	if got := fmt.Sprint(eventTypes(j)); got != want {
		t.Errorf("after the dispatcher popped it, the canceled job's events are %s, want %s", got, want)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("%d cells ran, want 2 (the canceled job's must not)", got)
	}
}

// TestCellDescShowsDefaults: a job cell's description names the values
// the cell runs at, so a spec that leaves size, ways, clock and refs to
// their defaults reads 32KB/8w at 1.33 GHz over 200k references, not the
// zero fields it was written with.
func TestCellDescShowsDefaults(t *testing.T) {
	cfg, err := CellSpec{Workload: "redis"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(context.Background(), "j1", "", []sim.Config{cfg})
	defer j.cancel()
	want := "workload=redis design=seesaw l1=32KB/8w freq=1.33GHz seed=0 refs=200000"
	if got := j.results[0].Desc; got != want {
		t.Errorf("cell desc = %q, want %q", got, want)
	}
}

// lockedBuffer is a log sink safe for the server's concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobReportsSharing: a job whose cells share group passes reports
// the two sharing counters in its status, in /metrics and in its "done"
// log line. The six cells are two designs at three clocks: one front-end
// group.
func TestJobReportsSharing(t *testing.T) {
	logs := &lockedBuffer{}
	s := New(Config{QueueDepth: 2, Workers: 2, Logger: log.New(logs, "", 0)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	var req JobRequest
	for _, cache := range []string{"seesaw", "baseline"} {
		for _, f := range []float64{1.33, 2.8, 4.0} {
			req.Cells = append(req.Cells, CellSpec{Workload: "redis", Cache: cache, FreqGHz: f, Refs: 5_000, Seed: 42, MemMB: 256})
		}
	}
	_, st := postJob(t, ts, req)
	var fin JobStatus
	if err := json.Unmarshal(waitDone(t, ts, st.ID), &fin); err != nil {
		t.Fatal(err)
	}
	p := fin.Pool
	if fin.State != StateDone || p.Runs != 6 {
		t.Fatalf("job %s with %d runs, want done with 6", fin.State, p.Runs)
	}
	// The job's cells start as one batch, so its six cells, which share
	// one front end, form one group: one pass answers the five others.
	if p.GroupPasses != 1 || p.GroupAnswered != 5 {
		t.Errorf("group passes %d, answered %d: want 1 pass answering 5 cells", p.GroupPasses, p.GroupAnswered)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("seesaw_service_group_passes_total %d\n", p.GroupPasses),
		fmt.Sprintf("seesaw_service_group_answered_total %d\n", p.GroupAnswered),
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
	}
	s.Close() // waits for the dispatcher, which logs the job's end
	want := fmt.Sprintf("group_passes=%d group_answered=%d)", p.GroupPasses, p.GroupAnswered)
	if !strings.Contains(logs.String(), want) {
		t.Errorf("job log lacks %q:\n%s", want, logs.String())
	}
}
