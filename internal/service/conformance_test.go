package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// maxCells is the per-job cell bound the daemon runs with.
const maxCells = 3

var quiet = log.New(io.Discard, "", 0)

// client bounds every request, so a stream that never ends fails the
// test instead of hanging it.
var client = &http.Client{Timeout: 5 * time.Second}

// fakeRun answers every cell at once with a report naming its workload.
func fakeRun(_ context.Context, cfg sim.Config) (*sim.Report, error) {
	return &sim.Report{SchemaVersion: sim.SchemaVersion, Design: "fake", Workload: cfg.Workload.Name}, nil
}

// daemon is one running server and its URL.
type daemon struct {
	url string
	*service.Server
}

func startDaemon(t *testing.T, cfg service.Config) daemon {
	t.Helper()
	if cfg.Run == nil {
		cfg.Run = fakeRun
	}
	cfg.MaxCellsPerJob, cfg.Logger = maxCells, quiet
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return daemon{ts.URL, s}
}

// jobBody is a job of n distinct cells.
func jobBody(n int) string {
	req := service.JobRequest{Label: "conformance"}
	for i := 0; i < n; i++ {
		req.Cells = append(req.Cells, service.CellSpec{Workload: "redis", Refs: 1000, Seed: int64(i)})
	}
	data, _ := json.Marshal(req)
	return string(data)
}

func do(t *testing.T, method, url, body string, header ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	return do(t, http.MethodPost, url, body)
}

func mustSubmit(t *testing.T, fe daemon, body string) service.JobStatus {
	t.Helper()
	resp := post(t, fe.url+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// readEvents reads a whole SSE response and returns its event blocks
// verbatim ("id: N\nevent: T\ndata: {...}").
func readEvents(t *testing.T, resp *http.Response) []string {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	var blocks []string
	var cur []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			cur = append(cur, line)
			continue
		}
		if len(cur) > 0 {
			blocks = append(blocks, strings.Join(cur, "\n"))
			cur = nil
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not end: %v", err)
	}
	return blocks
}

// TestJobsAPIConformance pins the /v1/jobs status codes and the SSE
// resume contract that Client relies on. The cases run under the name of
// the front end they drive, the daemon.
func TestJobsAPIConformance(t *testing.T) {
	t.Run("daemon", daemonConformance)
}

func daemonConformance(t *testing.T) {
	t.Run("400", func(t *testing.T) {
		fe := startDaemon(t, service.Config{})
		for name, body := range map[string]string{
			"bad JSON":         "{not json",
			"no cells":         `{"cells":[]}`,
			"too many cells":   jobBody(maxCells + 1),
			"unknown workload": `{"cells":[{"workload":"no-such-workload"}]}`,
			"mem_mb past 32GB": `{"cells":[{"workload":"redis","mem_mb":32770}]}`,
			"mem_mb wrapping":  `{"cells":[{"workload":"redis","mem_mb":17592186044416}]}`,
			"pipt waypredict":  `{"cells":[{"workload":"redis","cache":"pipt","waypredict":true}]}`,
		} {
			if resp := post(t, fe.url+"/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
			}
		}
	})
	t.Run("404", func(t *testing.T) {
		fe := startDaemon(t, service.Config{})
		for _, r := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/nope"},
			{http.MethodDelete, "/v1/jobs/nope"},
			{http.MethodGet, "/v1/jobs/nope/stream"},
		} {
			if resp := do(t, r.method, fe.url+r.path, ""); resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: HTTP %d, want 404", r.method, r.path, resp.StatusCode)
			}
		}
	})
	t.Run("429", func(t *testing.T) {
		// One job runs (blocked), one fills the depth-1 queue.
		started := make(chan struct{}, 1)
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		fe := startDaemon(t, service.Config{QueueDepth: 1, Workers: 1,
			Run: func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-release:
					return fakeRun(ctx, cfg)
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}})
		mustSubmit(t, fe, jobBody(1))
		<-started
		mustSubmit(t, fe, jobBody(1))
		resp := post(t, fe.url+"/v1/jobs", jobBody(1))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("HTTP %d, want 429", resp.StatusCode)
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
		}
	})
	t.Run("503 after drain", func(t *testing.T) {
		fe := startDaemon(t, service.Config{})
		if err := fe.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if resp := post(t, fe.url+"/v1/jobs", jobBody(1)); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("HTTP %d, want 503", resp.StatusCode)
		}
	})
	t.Run("stream resume", func(t *testing.T) {
		fe := startDaemon(t, service.Config{})
		st := mustSubmit(t, fe, jobBody(2))
		url := fe.url + "/v1/jobs/" + st.ID + "/stream"
		all := readEvents(t, do(t, http.MethodGet, url, ""))
		if len(all) < 4 || !strings.Contains(all[len(all)-1], "event: done") {
			t.Fatalf("live stream of a 2-cell job: %q", all)
		}
		// Resuming anywhere — mid-history, at the done event, past it —
		// returns exactly the events after Last-Event-ID.
		for _, last := range []int{1, len(all) - 1, len(all), len(all) + 3} {
			got := readEvents(t, do(t, http.MethodGet, url, "", "Last-Event-ID", strconv.Itoa(last)))
			want := all[min(last, len(all)):]
			if strings.Join(got, "\n\n") != strings.Join(want, "\n\n") {
				t.Errorf("resume after %d: got %q, want %q", last, got, want)
			}
		}
	})
}
