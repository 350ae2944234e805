package evolve

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"seesaw/internal/sim"
	"seesaw/internal/workload"
	"seesaw/internal/xrand"
)

// Scenario fixes everything the search is NOT allowed to move: which
// workloads the design must serve, how fragmented memory is, and the
// measurement window. Every genome is evaluated on exactly these cells.
type Scenario struct {
	// Workloads names the profiles a genome is scored on.
	Workloads []string
	// Frag is the memhog fraction fragmenting physical memory before
	// the workload maps its footprint — the regime SEESAW exists for.
	Frag float64
	// Seed is the workload/OS seed (not the search seed).
	Seed int64
	// Refs / WarmupRefs shape each cell's phases.
	Refs, WarmupRefs int
}

// config builds the scenario's base cell for one workload; the caller
// picks the design (Apply for a genome, KindBaseline for the fixed
// reference).
func (sc Scenario) config(name string) (sim.Config, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Workload:       p,
		Seed:           sc.Seed,
		Refs:           sc.Refs,
		WarmupRefs:     sc.WarmupRefs,
		MemhogFraction: sc.Frag,
	}, nil
}

// Options configures one search.
type Options struct {
	// Seed drives every stochastic decision (mutation, crossover,
	// tournament draws). Same seed, same scenario, same budget → byte-
	// identical generation logs and front.
	Seed int64
	// Population is the genomes per generation (minimum 2).
	Population int
	// Generations is the budget in generations.
	Generations int
	// MaxEvals, when > 0, additionally stops the search at the first
	// generation boundary where the ledger holds at least this many
	// distinct evaluated genomes.
	MaxEvals int
	// Weights steer selection; the front is reported regardless.
	Weights Weights
	// Scenario is what every genome is measured on.
	Scenario Scenario
	// Elite is how many best-by-score genomes survive unchanged into
	// the next generation (default 1).
	Elite int
	// TournamentK is the tournament size for parent selection
	// (default 3).
	TournamentK int
	// Log receives the per-generation summary lines (nil = discard).
	Log io.Writer
	// Checkpoint, when non-nil, persists search state at each
	// generation boundary under CheckpointName, and Run resumes from an
	// existing checkpoint whose options fingerprint matches.
	Checkpoint CheckpointStore
	// CheckpointName overrides the derived checkpoint name.
	CheckpointName string
}

// withDefaults fills zero values.
func (o Options) withDefaults() Options {
	if o.Population < 2 {
		o.Population = 12
	}
	if o.Generations <= 0 {
		o.Generations = 8
	}
	if o.Weights == (Weights{}) {
		o.Weights = DefaultWeights()
	}
	if o.Elite <= 0 {
		o.Elite = 1
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 3
	}
	if len(o.Scenario.Workloads) == 0 {
		o.Scenario.Workloads = []string{"redis", "mcf"}
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

// Result is the search's outcome.
type Result struct {
	// Front is the Pareto-optimal set over every genome evaluated,
	// best score first.
	Front []Candidate `json:"front"`
	// Best is the highest-scoring evaluated genome.
	Best Candidate `json:"best"`
	// Default is the paper-default genome's point, always evaluated.
	Default Candidate `json:"default"`
	// BestDominatesDefault reports whether some evaluated genome
	// strictly Pareto-dominates the paper default (not merely
	// out-scores it).
	BestDominatesDefault bool `json:"best_dominates_default"`
	// Generations and Evaluations are the consumed budget: generations
	// run (across resumes) and distinct genomes evaluated.
	Generations int `json:"generations"`
	Evaluations int `json:"evaluations"`
	// Pruned counts candidate genomes rejected by validation before
	// ever being simulated.
	Pruned int `json:"pruned"`
	// Resumed reports whether this run continued from a checkpoint.
	Resumed bool `json:"resumed"`
}

// Search carries one run's state. Construct with New, drive with Run.
type Search struct {
	opts Options
	ev   Evaluator

	rng *rand.Rand
	src *xrand.Source

	gen    int
	pop    []Genome
	ledger map[string]Candidate
	order  []string // ledger keys in first-evaluation order
	pruned int

	baseCycles []float64
	resumed    bool
}

// New prepares a search. If opts.Checkpoint holds a checkpoint for
// these options, the search resumes from it: population, RNG stream,
// and evaluation ledger are restored, so the continued run converges to
// the same front the uninterrupted run would have.
func New(opts Options, ev Evaluator) (*Search, error) {
	opts = opts.withDefaults()
	for _, w := range opts.Scenario.Workloads {
		if _, err := opts.Scenario.config(w); err != nil {
			return nil, err
		}
	}
	if err := DefaultGenome().validate(opts.Scenario); err != nil {
		return nil, fmt.Errorf("evolve: scenario rejects the default genome: %w", err)
	}
	s := &Search{
		opts:   opts,
		ev:     ev,
		ledger: make(map[string]Candidate),
	}
	s.rng, s.src = xrand.New(opts.Seed)
	if ok, err := s.loadCheckpoint(); err != nil {
		return nil, err
	} else if ok {
		s.resumed = true
		return s, nil
	}
	s.pop = s.initialPopulation()
	return s, nil
}

// initialPopulation seeds generation 0: the paper default first (so the
// comparison point is always evaluated), then bounded mutants of it.
func (s *Search) initialPopulation() []Genome {
	pop := []Genome{DefaultGenome()}
	for len(pop) < s.opts.Population {
		steps := 1 + len(pop)%3
		pop = append(pop, s.mutateN(DefaultGenome(), steps))
	}
	return pop
}

// Run executes the remaining generations and returns the front.
func (s *Search) Run(ctx context.Context) (*Result, error) {
	if err := s.evalBaselines(ctx); err != nil {
		return nil, err
	}
	for ; s.gen < s.opts.Generations; s.gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.saveCheckpoint(); err != nil {
			return nil, err
		}
		fresh, err := s.evalPopulation(ctx)
		if err != nil {
			return nil, err
		}
		f := s.currentFront()
		best := s.best()
		fmt.Fprintf(s.opts.Log,
			"gen %d: pop %d (%d new), ledger %d, pruned %d, front %d, best %.4f %s [speedup %.4f mpki %.3f energy %.0fnJ area %.0fB] | %s\n",
			s.gen, len(s.pop), fresh, len(s.ledger), s.pruned, len(f),
			best.Score, best.Genome.Key(), best.Obj.Speedup, best.Obj.MPKI,
			best.Obj.EnergyNJ, best.Obj.AreaBytes, s.ev.Sources())
		if s.opts.MaxEvals > 0 && len(s.ledger) >= s.opts.MaxEvals {
			s.gen++
			break
		}
		if s.gen < s.opts.Generations-1 {
			s.pop = s.nextPopulation()
		}
	}
	if err := s.saveCheckpoint(); err != nil {
		return nil, err
	}
	return s.result(), nil
}

// evalBaselines runs the fixed paper-default baseline-VIPT cell for
// each scenario workload — the denominator-free reference every
// genome's speedup is measured against. With a warm store these are
// store hits, never fresh simulations.
func (s *Search) evalBaselines(ctx context.Context) error {
	if s.baseCycles != nil {
		return nil
	}
	var futs []Future
	for _, w := range s.opts.Scenario.Workloads {
		cfg, err := s.opts.Scenario.config(w)
		if err != nil {
			return err
		}
		cfg.CacheKind = sim.KindBaseline
		futs = append(futs, s.ev.Submit(cfg))
	}
	for i, f := range futs {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep, err := f.Wait()
		if err != nil {
			return fmt.Errorf("evolve: baseline %s: %w", s.opts.Scenario.Workloads[i], err)
		}
		s.baseCycles = append(s.baseCycles, float64(rep.Cycles))
	}
	return nil
}

// evalPopulation measures every not-yet-evaluated genome in the current
// population and folds the results into the ledger. Submission and
// reduction follow population order, so the ledger's contents are
// independent of worker interleaving. Returns how many genomes were
// newly evaluated.
func (s *Search) evalPopulation(ctx context.Context) (int, error) {
	type pending struct {
		g    Genome
		futs []Future
	}
	var work []pending
	seen := make(map[string]bool)
	for _, g := range s.pop {
		k := g.Key()
		if _, done := s.ledger[k]; done || seen[k] {
			continue
		}
		seen[k] = true
		p := pending{g: g}
		for _, w := range s.opts.Scenario.Workloads {
			base, err := s.opts.Scenario.config(w)
			if err != nil {
				return 0, err
			}
			p.futs = append(p.futs, s.ev.Submit(g.Apply(base)))
		}
		work = append(work, p)
	}
	for _, p := range work {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var reports []*sim.Report
		for i, f := range p.futs {
			rep, err := f.Wait()
			if err != nil {
				return 0, fmt.Errorf("evolve: genome %s on %s: %w",
					p.g.Key(), s.opts.Scenario.Workloads[i], err)
			}
			reports = append(reports, rep)
		}
		obj := reduce(reports, s.baseCycles)
		obj.AreaBytes = p.g.AreaBytes()
		k := p.g.Key()
		s.ledger[k] = Candidate{Genome: p.g, Obj: obj, Score: obj.Score(s.opts.Weights)}
		s.order = append(s.order, k)
	}
	return len(work), nil
}

// currentFront is the Pareto front over everything evaluated so far.
func (s *Search) currentFront() []Candidate {
	cands := make([]Candidate, 0, len(s.order))
	for _, k := range s.order {
		cands = append(cands, s.ledger[k])
	}
	return front(cands)
}

// best is the highest-scoring evaluated candidate (key tie-break).
func (s *Search) best() Candidate {
	var b Candidate
	first := true
	for _, k := range s.order {
		c := s.ledger[k]
		if first || c.Score > b.Score || (c.Score == b.Score && c.Genome.Key() < b.Genome.Key()) {
			b, first = c, false
		}
	}
	return b
}

// nextPopulation applies elitism, tournament selection, crossover, and
// bounded mutation to produce the next generation.
func (s *Search) nextPopulation() []Genome {
	scored := make([]Candidate, 0, len(s.pop))
	seen := make(map[string]bool)
	for _, g := range s.pop {
		k := g.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		if c, ok := s.ledger[k]; ok {
			scored = append(scored, c)
		}
	}
	sortCandidates(scored)
	var next []Genome
	for i := 0; i < s.opts.Elite && i < len(scored); i++ {
		next = append(next, scored[i].Genome)
	}
	for len(next) < s.opts.Population {
		a := s.tournament(scored)
		b := s.tournament(scored)
		child := s.crossover(a, b)
		next = append(next, s.mutateN(child, 1))
	}
	return next
}

// tournament draws K members (with replacement) and returns the best.
func (s *Search) tournament(scored []Candidate) Genome {
	best := scored[s.rng.Intn(len(scored))]
	for i := 1; i < s.opts.TournamentK; i++ {
		c := scored[s.rng.Intn(len(scored))]
		if c.Score > best.Score || (c.Score == best.Score && c.Genome.Key() < best.Genome.Key()) {
			best = c
		}
	}
	return best.Genome
}

// crossover mixes two parents gene-by-gene (uniform crossover); an
// invalid child falls back to parent a, so the operator can never
// produce an unsimulatable genome.
func (s *Search) crossover(a, b Genome) Genome {
	child := a
	for gi, sp := range genes {
		if s.rng.Intn(2) == 1 {
			child = sp.set(child, genes[gi].get(b))
		}
	}
	child = child.normalize()
	if err := child.validate(s.opts.Scenario); err != nil {
		s.pruned++
		return a
	}
	return child
}

// mutateN applies n bounded mutations: each picks one gene and steps
// its menu index by ±1 (clamped at the ends). A step that lands on an
// invalid genome is pruned and redrawn, falling back to the unmutated
// genome after a bounded number of attempts — the search slows at walls
// of the design space, it never crashes into them.
func (s *Search) mutateN(g Genome, n int) Genome {
	for i := 0; i < n; i++ {
		g = s.mutate(g)
	}
	return g
}

func (s *Search) mutate(g Genome) Genome {
	const attempts = 8
	for try := 0; try < attempts; try++ {
		gi := s.rng.Intn(len(genes))
		sp := genes[gi]
		idx := sp.get(g)
		step := 1
		if s.rng.Intn(2) == 0 {
			step = -1
		}
		nidx := idx + step
		if nidx < 0 {
			nidx = idx - step
		} else if nidx >= sp.n {
			nidx = idx - step
		}
		if nidx < 0 || nidx >= sp.n || nidx == idx {
			continue
		}
		cand := sp.set(g, nidx).normalize()
		if err := cand.validate(s.opts.Scenario); err != nil {
			s.pruned++
			continue
		}
		return cand
	}
	return g
}

// result assembles the final Result.
func (s *Search) result() *Result {
	f := s.currentFront()
	def := s.ledger[DefaultGenome().Key()]
	dominates := false
	for _, c := range f {
		if c.Obj.dominates(def.Obj) {
			dominates = true
			break
		}
	}
	return &Result{
		Front:                f,
		Best:                 s.best(),
		Default:              def,
		BestDominatesDefault: dominates,
		Generations:          s.gen,
		Evaluations:          len(s.ledger),
		Pruned:               s.pruned,
		Resumed:              s.resumed,
	}
}

// sortedLedger returns the ledger as a key-sorted slice — the stable
// form checkpoints persist.
func (s *Search) sortedLedger() []Candidate {
	keys := make([]string, 0, len(s.ledger))
	for k := range s.ledger {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Candidate, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.ledger[k])
	}
	return out
}
