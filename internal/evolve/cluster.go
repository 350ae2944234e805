package evolve

import (
	"fmt"

	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// ClusterEvaluator ships each generation's cells to a seesaw-served
// daemon instead of simulating locally. Each generation's cells collect
// in one service.Batch that ships at Flush — one barrier per generation
// — exactly as seesaw-sweep's -cluster mode ships its grid. Dedup then
// happens server-side through each job's duplicate-cell cache and the
// daemon's result store.
type ClusterEvaluator struct {
	cl      *service.Client
	batch   *service.Batch
	batches int
}

// NewClusterEvaluator targets the daemon at url.
func NewClusterEvaluator(url string) *ClusterEvaluator {
	return &ClusterEvaluator{cl: service.NewClient(url)}
}

// Submit implements Evaluator: the cell joins the current generation's
// batch (see service.Batch.Submit for configs the wire cannot carry).
func (e *ClusterEvaluator) Submit(cfg sim.Config) Future {
	if e.batch == nil {
		e.batches++
		e.batch = service.NewBatch(e.cl, fmt.Sprintf("seesaw-evolve batch %d", e.batches))
	}
	return e.batch.Submit(cfg)
}

// Flush implements Evaluator: ship everything submitted since the last
// Flush and fill those futures.
func (e *ClusterEvaluator) Flush() {
	if e.batch != nil {
		e.batch.Flush()
		e.batch = nil
	}
}

// Sources implements Evaluator. Per-cell source attribution lives on
// the daemon in remote mode, so the line is a fixed pointer rather than
// numbers that would vary with the daemon's store and history (the
// generation log must stay byte-identical for a given seed).
func (e *ClusterEvaluator) Sources() string {
	return "cluster (per-cell sources on the daemon's /v1/jobs status)"
}
