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

// Evaluator is where the search's cells go. Submit must not block;
// Flush is the generation barrier — after it, every Wait on a
// previously returned future completes. Sources renders the one-line
// evaluation-source summary (store hits vs fresh runs vs ladder
// resumes) the generation log carries.
type Evaluator interface {
	Submit(cfg sim.Config) Future
	Flush()
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

// Flush implements Evaluator; pool cells run eagerly, so the waits
// themselves are the barrier.
func (e PoolEvaluator) Flush() {}

// Sources implements Evaluator with the pool's DeterministicSources:
// its group-pass counts follow worker timing, and the generation log
// must stay byte-identical for a given seed.
func (e PoolEvaluator) Sources() string { return e.Pool.Stats().DeterministicSources() }
