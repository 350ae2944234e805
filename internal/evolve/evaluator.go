package evolve

import (
	"seesaw/internal/runner"
	"seesaw/internal/sim"
)

// Future is the one thing the search needs from a submitted cell.
// *runner.Future satisfies it for local evaluation; *service.Cell does
// for remote.
type Future interface {
	Wait() (*sim.Report, error)
}

// Evaluator is where the search's cells go. Submit must not block; the
// cells submitted since the last Wait form one batch, which the next
// Wait starts, so a generation's cells share what they can and a batch
// nobody waits on never runs. Sources renders the one-line
// evaluation-source summary (store hits vs fresh runs vs ladder
// resumes, and the group passes) the generation log carries.
type Evaluator interface {
	Submit(cfg sim.Config) Future
	Sources() string
}

// PoolEvaluator adapts a runner.Pool — with a store open, one built
// over that store's LadderRun with the store attached, so identical
// genomes across generations and processes cost one simulation ever.
type PoolEvaluator struct {
	Pool *runner.Pool
}

// Submit implements Evaluator.
func (e PoolEvaluator) Submit(cfg sim.Config) Future { return e.Pool.Submit(cfg) }

// Sources implements Evaluator with the pool's Sources, which is the
// same on every run of a seed.
func (e PoolEvaluator) Sources() string { return e.Pool.Stats().Sources() }
