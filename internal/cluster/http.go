package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// Handler serves the coordinator's HTTP surface: the single-daemon
// /v1/jobs API, mounted by the same service.MountJobs (clients need not
// know whether they talk to one worker or a fleet), plus the
// cluster-only worker registry endpoints.
//
//	POST   /v1/cluster/workers   register a worker {"addr": "host:port"}
//	GET    /v1/cluster/workers   worker registry snapshot
//	GET    /healthz              coordinator + fleet health
//	GET    /metrics              Prometheus text exposition
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	service.MountJobs(mux, c)
	mux.HandleFunc("POST /v1/cluster/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorBody{Error: "bad register JSON: " + err.Error()})
		return
	}
	if err := c.Register(req.Addr); err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorBody{Error: err.Error()})
		return
	}
	service.WriteJSON(w, http.StatusOK, c.workerStatuses())
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.workerStatuses())
}

func (c *Coordinator) workerStatuses() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.order))
	for _, addr := range c.order {
		w := c.workers[addr]
		out = append(out, WorkerStatus{
			Addr: w.addr, Healthy: w.healthy, Slots: w.slots,
			Active: w.active, ConsecFails: w.consecFails, LastError: w.lastErr,
		})
	}
	return out
}

// healthBody is the coordinator's GET /healthz payload.
type healthBody struct {
	Status        string         `json:"status"` // "ok" or "draining"
	SchemaVersion int            `json:"schema_version"`
	Queued        int            `json:"queued"`
	Leases        int            `json:"leases"`
	Jobs          int            `json:"jobs"`
	Workers       []WorkerStatus `json:"workers"`
	Counters      Counters       `json:"counters"`
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	h := healthBody{
		Status:        "ok",
		SchemaVersion: sim.SchemaVersion,
		Queued:        len(c.queue),
		Leases:        len(c.leases),
		Jobs:          len(c.jobs),
		Counters:      c.counters,
	}
	if c.draining {
		h.Status = "draining"
	}
	for _, addr := range c.order {
		wk := c.workers[addr]
		h.Workers = append(h.Workers, WorkerStatus{
			Addr: wk.addr, Healthy: wk.healthy, Slots: wk.slots,
			Active: wk.active, ConsecFails: wk.consecFails, LastError: wk.lastErr,
		})
	}
	c.mu.Unlock()
	service.WriteJSON(w, http.StatusOK, h)
}

// handleMetrics exposes the scheduling counters in Prometheus text
// format — the audit trail the failure-matrix tests assert against.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	ct := c.counters
	queued := len(c.queue)
	leases := len(c.leases)
	jobs := len(c.jobs)
	healthy := 0
	for _, wk := range c.workers {
		if wk.healthy {
			healthy++
		}
	}
	total := len(c.workers)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(name, help, typ string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	p("seesaw_coord_jobs_accepted_total", "Jobs admitted.", "counter", ct.JobsAccepted)
	p("seesaw_coord_jobs_rate_limited_total", "Submissions refused by the token bucket.", "counter", ct.JobsRateLimited)
	p("seesaw_coord_jobs_queue_full_total", "Submissions refused by the queue bound.", "counter", ct.JobsQueueFull)
	p("seesaw_coord_cells_total", "Cells accepted.", "counter", ct.CellsTotal)
	p("seesaw_coord_cells_done_total", "Cells completed successfully.", "counter", ct.CellsDone)
	p("seesaw_coord_cells_failed_total", "Cells failed after exhausting their budget.", "counter", ct.CellsFailed)
	p("seesaw_coord_cells_canceled_total", "Cells canceled with their job.", "counter", ct.CellsCanceled)
	p("seesaw_coord_store_hits_total", "Cells answered from the shared store.", "counter", ct.StoreHits)
	p("seesaw_coord_dup_hits_total", "Cells that piggybacked on an in-flight lease.", "counter", ct.DupHits)
	p("seesaw_coord_remote_runs_total", "Cells computed by workers.", "counter", ct.RemoteRuns)
	p("seesaw_coord_leases_granted_total", "Leases granted.", "counter", ct.LeasesGranted)
	p("seesaw_coord_leases_renewed_total", "Lease renewals (heartbeats).", "counter", ct.LeasesRenewed)
	p("seesaw_coord_leases_expired_total", "Leases expired for missed heartbeats.", "counter", ct.LeasesExpired)
	p("seesaw_coord_leases_evicted_total", "Leases canceled by worker eviction.", "counter", ct.LeasesEvicted)
	p("seesaw_coord_dispatch_errors_total", "Dispatches that failed without lease expiry.", "counter", ct.DispatchErrors)
	p("seesaw_coord_requeues_total", "Cells returned to the queue after a failed lease.", "counter", ct.Requeues)
	p("seesaw_coord_budget_exhausted_total", "Cells failed at the attempt budget.", "counter", ct.BudgetExhausted)
	p("seesaw_coord_workers_registered_total", "Workers ever registered.", "counter", ct.WorkersRegistered)
	p("seesaw_coord_workers_evicted_total", "Worker evictions.", "counter", ct.WorkersEvicted)
	p("seesaw_coord_workers_readmitted_total", "Worker readmissions.", "counter", ct.WorkersReadmitted)
	p("seesaw_coord_affinity_hits_total", "Dispatches routed to the warm owner.", "counter", ct.AffinityHits)
	p("seesaw_coord_affinity_reassigned_total", "Warmup signatures re-homed after worker loss.", "counter", ct.AffinityReassigned)
	p("seesaw_coord_queue_cells", "Cells pending dispatch.", "gauge", uint64(queued))
	p("seesaw_coord_leases_active", "Leases currently held.", "gauge", uint64(leases))
	p("seesaw_coord_jobs", "Jobs known.", "gauge", uint64(jobs))
	p("seesaw_coord_workers_healthy", "Workers currently healthy.", "gauge", uint64(healthy))
	p("seesaw_coord_workers", "Workers registered.", "gauge", uint64(total))
}
