package cluster

import (
	"sync/atomic"
	"time"

	"seesaw/internal/machine"
	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// Unit states. A unit is one cell of one job as the scheduler sees it.
const (
	unitPending  = iota // in the coordinator queue, dispatchable once readyAt passes
	unitWaiting         // parked behind an in-flight lease for the same canonical key
	unitInflight        // covered by a lease
	unitDone
	unitFailed
	unitCanceled
)

// unit is one schedulable cell. All fields are guarded by the
// coordinator's mutex.
type unit struct {
	job   *cjob
	index int
	spec  service.CellSpec
	cfg   sim.Config
	// key is the canonical cell identity ("" when the cell is not
	// canonicalizable and must never be deduplicated or cached).
	key string
	// sig/hasSig carry the warmup signature for affinity routing.
	sig    machine.WarmupSignature
	hasSig bool

	state    int
	attempts int       // dispatch attempts consumed
	readyAt  time.Time // earliest next dispatch (backoff)
}

// cjob is the daemon's job record (service.Job: states, results, SSE
// history) over the coordinator's unit queue, plus per-job scheduling
// counters. The counters are atomic, so a status never takes the
// coordinator mutex; units are guarded by it.
type cjob struct {
	*service.Job
	units []*unit

	runs      atomic.Uint64
	storeHits atomic.Uint64
	dupHits   atomic.Uint64
	retries   atomic.Uint64
	failures  atomic.Uint64
}

// poolStats reports the job's scheduling outcomes in the daemon's
// PoolStats shape.
func (j *cjob) poolStats() service.PoolStats {
	return service.PoolStats{
		Submitted: uint64(len(j.units)),
		Runs:      j.runs.Load(),
		CacheHits: j.dupHits.Load(),
		Retries:   j.retries.Load(),
		Failures:  j.failures.Load(),
		StoreHits: j.storeHits.Load(),
	}
}

// completeUnit settles one cell — done, failed, or canceled with its
// job — on the job record, which ends the job with its last cell.
// Callers hold the coordinator mutex; the unit must not already be
// settled.
func (j *cjob) completeUnit(u *unit, rep *sim.Report, err error) {
	switch {
	case err == nil:
		u.state = unitDone
	case j.Context().Err() != nil:
		u.state = unitCanceled
	default:
		u.state = unitFailed
	}
	if err != nil {
		j.failures.Add(1)
	}
	j.CompleteCell(u.index, rep, err)
}
