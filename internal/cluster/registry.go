package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// worker is one registered seesaw-served process as the coordinator sees
// it. Mutable fields are guarded by the coordinator's mutex; the client
// is immutable and used outside it.
type worker struct {
	addr   string
	client *workerClient

	healthy     bool
	evicted     bool // crossed the failure threshold (vs never yet probed healthy)
	consecFails int
	slots       int // concurrent-cell capacity, from /healthz (workers field)
	active      int // leases currently held
	schema      int // worker's report schema version
	lastProbe   time.Time
	lastErr     string
}

func newWorker(addr string, probeTimeout time.Duration) *worker {
	return &worker{
		addr:   addr,
		client: newWorkerClient(addr, probeTimeout),
		slots:  1, // conservative until the first probe reports capacity
	}
}

// WorkerStatus is the wire form of one worker row (GET
// /v1/cluster/workers and the coordinator healthz).
type WorkerStatus struct {
	Addr        string `json:"addr"`
	Healthy     bool   `json:"healthy"`
	Slots       int    `json:"slots"`
	Active      int    `json:"active"`
	ConsecFails int    `json:"consec_fails,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// applyProbe folds one probe outcome into the registry: successes reset
// the failure streak and readmit evicted workers, failures count toward
// the eviction threshold, and crossing it cancels the worker's leases so
// their cells requeue immediately instead of waiting out the lease TTL.
func (c *Coordinator) applyProbe(w *worker, h *workerHealth, err error) {
	now := time.Now()
	if err == nil && h != nil && h.SchemaVersion != 0 && h.SchemaVersion != sim.SchemaVersion {
		// A worker speaking a different report schema cannot contribute to
		// byte-identical merged tables; hold it out of routing.
		err = fmt.Errorf("schema version %d, coordinator wants %d", h.SchemaVersion, sim.SchemaVersion)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w.lastProbe = now
	if err != nil {
		w.lastErr = err.Error()
		w.consecFails++
		if w.healthy && w.consecFails >= c.cfg.EvictAfter {
			c.evictLocked(w, now)
		}
		return
	}
	w.lastErr = ""
	w.consecFails = 0
	if h.Workers > 0 {
		w.slots = h.Workers
	}
	w.schema = h.SchemaVersion
	if !w.healthy {
		w.healthy = true
		if w.evicted {
			w.evicted = false
			c.counters.WorkersReadmitted++
			c.cfg.Logger.Printf("cluster: readmitted worker %s (%d slots)", w.addr, w.slots)
		}
	}
}

// evictLocked marks a worker unhealthy, cancels its in-flight leases
// (their dispatch goroutines requeue the cells), and clears its affinity
// assignments so signatures re-home to surviving workers. Queued work is
// untouched. Callers hold the coordinator mutex.
func (c *Coordinator) evictLocked(w *worker, now time.Time) {
	w.healthy = false
	w.evicted = true
	c.counters.WorkersEvicted++
	canceled := 0
	for _, l := range c.leases {
		if l.w == w && l.reason == "" {
			l.reason = reasonEvicted
			c.counters.LeasesEvicted++
			l.cancel()
			canceled++
		}
	}
	for sig, owner := range c.route.owners {
		if owner == w {
			delete(c.route.owners, sig)
		}
	}
	c.cfg.Logger.Printf("cluster: evicted worker %s after %d failed probes (%d leases canceled)", w.addr, w.consecFails, canceled)
}

// healthLoop probes every worker on the configured cadence. Probes run
// concurrently and off the coordinator mutex; evicted workers keep being
// probed so they readmit as soon as they recover.
func (c *Coordinator) healthLoop() {
	defer c.bg.Done()
	tick := time.NewTicker(c.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.rootCtx.Done():
			return
		case <-tick.C:
		}
		c.mu.Lock()
		ws := make([]*worker, 0, len(c.workers))
		for _, addr := range c.order {
			ws = append(ws, c.workers[addr])
		}
		c.mu.Unlock()
		done := make(chan struct{}, len(ws))
		for _, w := range ws {
			go func(w *worker) {
				h, err := w.client.probe(c.rootCtx)
				c.applyProbe(w, h, err)
				done <- struct{}{}
			}(w)
		}
		for range ws {
			<-done
		}
		c.wakeUp()
	}
}

// workerHealth is the subset of the worker's /healthz body the
// coordinator consumes.
type workerHealth struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	CellsRunning  int    `json:"cells_running"`
	SchemaVersion int    `json:"schema_version"`
}

// workerClient speaks the worker's HTTP surface: /healthz probes and the
// SSE-framed POST /v1/cells/run dispatch stream.
type workerClient struct {
	base         string
	http         *http.Client
	probeTimeout time.Duration
}

func newWorkerClient(addr string, probeTimeout time.Duration) *workerClient {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	// No overall client timeout: cell streams legitimately run for
	// minutes, bounded instead by heartbeat-renewed lease contexts.
	return &workerClient{base: base, http: &http.Client{}, probeTimeout: probeTimeout}
}

// probe fetches /healthz. Any transport error, non-200, or non-"ok"
// status (a draining worker refuses new cells) counts as a failed probe.
func (wc *workerClient) probe(ctx context.Context) (*workerHealth, error) {
	ctx, cancel := context.WithTimeout(ctx, wc.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wc.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := wc.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var h workerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	if h.Status != "ok" {
		return nil, fmt.Errorf("healthz: status %q", h.Status)
	}
	return &h, nil
}

// runCell dispatches one cell and consumes its event stream, invoking
// onBeat for every heartbeat (the lease renewal) until the terminal
// result arrives. Cancel ctx to abandon the dispatch: the worker
// observes the disconnect and unwinds the cell.
func (wc *workerClient) runCell(ctx context.Context, spec service.CellSpec, leaseID string, hb time.Duration, onBeat func()) (*sim.Report, error) {
	body, err := json.Marshal(service.CellRunRequest{
		Cell:        spec,
		LeaseID:     leaseID,
		HeartbeatMS: int(hb / time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wc.base+"/v1/cells/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := wc.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := readErrorBody(resp)
		return nil, fmt.Errorf("cells/run: HTTP %d: %s", resp.StatusCode, msg)
	}
	sc := bufio.NewScanner(resp.Body)
	// Result events carry whole reports (epoch series included); size the
	// line buffer for them.
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "heartbeat":
				onBeat()
			case "result":
				var res service.CellRunResult
				if err := json.Unmarshal([]byte(data), &res); err != nil {
					return nil, fmt.Errorf("cells/run: bad result: %w", err)
				}
				if res.Error != "" {
					return nil, &remoteCellError{msg: res.Error}
				}
				if res.Report == nil {
					return nil, fmt.Errorf("cells/run: result carried no report")
				}
				return res.Report, nil
			}
			event, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cells/run: stream: %w", err)
	}
	return nil, fmt.Errorf("cells/run: stream ended without a result")
}

// remoteCellError marks a cell the worker executed and reported failed —
// as opposed to a transport failure. Both consume a dispatch attempt
// (the failure may be the worker's: a poisoned box fails cells a healthy
// one would finish), but remote errors are surfaced verbatim once the
// attempt budget runs out.
type remoteCellError struct{ msg string }

func (e *remoteCellError) Error() string { return e.msg }

func readErrorBody(resp *http.Response) (string, error) {
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		return "", err
	}
	return eb.Error, nil
}
