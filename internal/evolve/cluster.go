package evolve

import (
	"fmt"

	"seesaw/internal/cluster"
	"seesaw/internal/sim"
)

// ClusterEvaluator ships each generation's cells to a seesaw-coord
// coordinator (or a single seesaw-served daemon; the API is identical)
// instead of simulating locally. Each generation's cells collect in one
// cluster.Batch that ships at Flush — one barrier per generation —
// exactly as seesaw-sweep's -cluster mode ships its grid. Dedup then
// happens server-side through the coordinator's duplicate-cell
// piggybacking and the shared result store.
type ClusterEvaluator struct {
	cl      *cluster.Client
	batch   *cluster.Batch
	batches int
}

// NewClusterEvaluator targets the coordinator at url.
func NewClusterEvaluator(url string) *ClusterEvaluator {
	return &ClusterEvaluator{cl: cluster.NewClient(url)}
}

// Submit implements Evaluator: the cell joins the current generation's
// batch (see cluster.Batch.Submit for configs the wire cannot carry).
func (e *ClusterEvaluator) Submit(cfg sim.Config) Future {
	if e.batch == nil {
		e.batches++
		e.batch = cluster.NewBatch(e.cl, fmt.Sprintf("seesaw-evolve batch %d", e.batches))
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
// the workers in cluster mode, so the line is a fixed pointer rather
// than numbers that would vary with worker placement (the generation
// log must stay byte-identical for a given seed).
func (e *ClusterEvaluator) Sources() string {
	return "cluster (per-cell sources on the coordinator's /v1/jobs status)"
}
