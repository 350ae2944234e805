// Remote mode: with -cluster URL the sweep does not simulate locally —
// every cell joins one service.Batch that ships the whole grid to a
// seesaw-served daemon on the first Wait. The submit/reduce structure of
// the sweep is untouched: cells are still registered in table order and
// reduced in table order, so the merged table is byte-identical to a
// local run of the same grid — the cluster tests pin exactly that
// property.

package main

import (
	"seesaw/internal/service"
	"seesaw/internal/sim"
)

// future is the one thing the reduce phase needs from a submitted cell.
// *runner.Future satisfies it for local sweeps; *service.Cell does for
// remote sweeps.
type future interface {
	Wait() (*sim.Report, error)
}

// newSubmitter picks the execution backend for a sweep: where cells go.
// Submitting never blocks; Wait on the returned future does.
func (o sweepOptions) newSubmitter() func(sim.Config) future {
	if o.clusterURL != "" {
		b := service.NewBatch(service.NewClient(o.clusterURL), "seesaw-sweep")
		return func(cfg sim.Config) future { return b.Submit(cfg) }
	}
	p := o.newPool()
	return func(cfg sim.Config) future { return p.Submit(cfg) }
}
