package evolve

import (
	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// ClusterEvaluator ships the search's cells to a seesaw-served daemon
// instead of simulating locally. Its cells collect in one
// service.Batch, where the first Wait after a generation's submissions
// ships them as that generation's jobs, exactly as seesaw-sweep's
// -cluster mode ships its grid. Dedup then happens server-side through
// each job's duplicate-cell cache and the daemon's result store.
type ClusterEvaluator struct {
	batch *service.Batch
}

// NewClusterEvaluator targets the daemon at url.
func NewClusterEvaluator(url string) *ClusterEvaluator {
	return &ClusterEvaluator{batch: service.NewBatch(service.NewClient(url), "seesaw-evolve")}
}

// Submit implements Evaluator: the cell joins the batch's next
// shipment (see service.Batch.Submit for configs the wire cannot
// carry).
func (e *ClusterEvaluator) Submit(cfg sim.Config) Future {
	return e.batch.Submit(cfg)
}

// Sources implements Evaluator. Per-cell source attribution lives on
// the daemon in remote mode, so the line is a fixed pointer rather than
// numbers that would vary with the daemon's store and history (the
// generation log must stay byte-identical for a given seed).
func (e *ClusterEvaluator) Sources() string {
	return "cluster (per-cell sources on the daemon's /v1/jobs status)"
}
