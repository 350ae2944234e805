package evolve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"seesaw/internal/xrand"
)

// CheckpointStore is the slice of the disk store the search needs:
// named blobs written atomically. *store.Store implements it; tests
// substitute in-memory fakes.
type CheckpointStore interface {
	GetCheckpoint(name string) ([]byte, bool)
	PutCheckpoint(name string, blob []byte) error
}

// checkpointSchema versions the checkpoint encoding; a mismatch means
// the blob was written by different code and is ignored rather than
// misread. When the evaluator shares the checkpoint's store, an ignored
// checkpoint costs a restart from generation 0 answered by store hits,
// not fresh simulations. Version 1 predates the design gene.
const checkpointSchema = 2

// checkpointState is the JSON the search persists at every generation
// boundary: enough to resume mid-search to the byte-identical front.
// The evaluated cells themselves live in the content-addressed result
// store, so the ledger here is belt (fast resume, no re-reads) and the
// store is suspenders (a truncated ledger only costs store hits).
type checkpointState struct {
	Schema      int               `json:"schema"`
	Fingerprint string            `json:"fingerprint"`
	Generation  int               `json:"generation"`
	Population  []Genome          `json:"population"`
	RNG         xrand.SourceState `json:"rng"`
	Ledger      []Candidate       `json:"ledger"` // key-sorted
	Pruned      int               `json:"pruned"`
}

// fingerprint hashes every option that shapes the search's trajectory,
// so a checkpoint is only ever resumed into the exact search that wrote
// it; resuming with a different budget, scenario, or weights starts
// fresh instead of continuing an incompatible run.
func (o Options) fingerprint() string {
	h := sha256.New()
	ws := append([]string(nil), o.Scenario.Workloads...)
	sort.Strings(ws)
	fmt.Fprintf(h, "evolve-v%d|seed=%d|pop=%d|gens=%d|evals=%d|elite=%d|k=%d|w=%+v|frag=%g|wseed=%d|refs=%d|warmup=%d|loads=%v",
		checkpointSchema, o.Seed, o.Population, o.Generations, o.MaxEvals,
		o.Elite, o.TournamentK, o.Weights, o.Scenario.Frag, o.Scenario.Seed,
		o.Scenario.Refs, o.Scenario.WarmupRefs, ws)
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointName is the blob name: explicit override, or one derived
// from the fingerprint so unrelated searches sharing a store directory
// never clobber each other's state.
func (o Options) checkpointName() string {
	if o.CheckpointName != "" {
		return o.CheckpointName
	}
	return "evolve-" + o.fingerprint()[:16]
}

// saveCheckpoint persists the search state; a no-op without a store.
func (s *Search) saveCheckpoint() error {
	if s.opts.Checkpoint == nil {
		return nil
	}
	st := checkpointState{
		Schema:      checkpointSchema,
		Fingerprint: s.opts.fingerprint(),
		Generation:  s.gen,
		Population:  s.pop,
		RNG:         s.src.State(),
		Ledger:      s.sortedLedger(),
		Pruned:      s.pruned,
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("evolve: checkpoint: %w", err)
	}
	if err := s.opts.Checkpoint.PutCheckpoint(s.opts.checkpointName(), blob); err != nil {
		return fmt.Errorf("evolve: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint restores state from a matching checkpoint. ok=false
// (no error) when there is nothing usable to resume: no store, no blob,
// a different schema, or a different search's fingerprint.
func (s *Search) loadCheckpoint() (ok bool, err error) {
	if s.opts.Checkpoint == nil {
		return false, nil
	}
	blob, found := s.opts.Checkpoint.GetCheckpoint(s.opts.checkpointName())
	if !found {
		return false, nil
	}
	var st checkpointState
	if err := json.Unmarshal(blob, &st); err != nil {
		return false, nil // corrupt blob: start fresh, the store still dedups
	}
	if st.Schema != checkpointSchema || st.Fingerprint != s.opts.fingerprint() {
		return false, nil
	}
	if len(st.Population) == 0 {
		return false, nil
	}
	for _, g := range st.Population {
		if err := g.onMenus(); err != nil {
			return false, err
		}
	}
	if err := s.src.SetState(st.RNG); err != nil {
		return false, fmt.Errorf("evolve: checkpoint RNG: %w", err)
	}
	s.gen = st.Generation
	s.pop = st.Population
	s.pruned = st.Pruned
	s.ledger = make(map[string]Candidate, len(st.Ledger))
	s.order = s.order[:0]
	for _, c := range st.Ledger {
		k := c.Genome.Key()
		s.ledger[k] = c
		s.order = append(s.order, k)
	}
	return true, nil
}
