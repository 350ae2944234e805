package workload

import (
	"fmt"
	"slices"

	"seesaw/internal/addr"
	"seesaw/internal/xrand"
)

// GeneratorState is a generator's serializable mutable state: every
// per-thread RNG position plus the cursors that shape the record
// stream. The profile and the bound region bases are config-derived
// (Build re-creates and re-binds them identically), but the bases
// travel anyway so a restore onto a mismatched generator is caught
// rather than silently desynchronized.
type GeneratorState struct {
	HeapBase  addr.VAddr
	SmallBase addr.VAddr
	OSBase    addr.VAddr
	Bound     bool

	Srcs    []xrand.SourceState
	SeqCur  []uint64
	ChaseAt []uint64
	LastVA  []addr.VAddr

	CodeBase  addr.VAddr
	CodeBound bool
	CodeCur   []uint64
}

// State captures the generator's stream position.
func (g *Generator) State() GeneratorState {
	s := GeneratorState{
		HeapBase: g.heapBase, SmallBase: g.smallBase, OSBase: g.osBase, Bound: g.bound,
		SeqCur:   append([]uint64(nil), g.seqCur...),
		ChaseAt:  append([]uint64(nil), g.chaseAt...),
		LastVA:   append([]addr.VAddr(nil), g.lastVA...),
		CodeBase: g.codeBase, CodeBound: g.codeBound,
		CodeCur: append([]uint64(nil), g.codeCur...),
	}
	s.Srcs = make([]xrand.SourceState, len(g.srcs))
	for i, src := range g.srcs {
		s.Srcs[i] = src.State()
	}
	return s
}

// Equal reports whether two states describe the same stream position:
// generators of one profile in equal states draw the same records from
// here on.
func (s GeneratorState) Equal(o GeneratorState) bool {
	return s.HeapBase == o.HeapBase && s.SmallBase == o.SmallBase && s.OSBase == o.OSBase &&
		s.Bound == o.Bound && slices.Equal(s.Srcs, o.Srcs) && slices.Equal(s.SeqCur, o.SeqCur) &&
		slices.Equal(s.ChaseAt, o.ChaseAt) && slices.Equal(s.LastVA, o.LastVA) &&
		s.CodeBase == o.CodeBase && s.CodeBound == o.CodeBound && slices.Equal(s.CodeCur, o.CodeCur)
}

// SetState restores the generator in place. The receiver must have been
// built from the same profile and bound to the same regions the state
// was captured from.
func (g *Generator) SetState(s GeneratorState) error {
	n := len(g.srcs)
	if len(s.Srcs) != n || len(s.SeqCur) != n || len(s.ChaseAt) != n || len(s.LastVA) != n {
		return fmt.Errorf("workload: state sized for %d threads, generator has %d", len(s.Srcs), n)
	}
	if s.Bound != g.bound || s.HeapBase != g.heapBase || s.SmallBase != g.smallBase || s.OSBase != g.osBase {
		return fmt.Errorf("workload: state bound to different regions than the generator")
	}
	if s.CodeBound != g.codeBound || s.CodeBase != g.codeBase {
		return fmt.Errorf("workload: state bound to a different code region than the generator")
	}
	if len(s.CodeCur) != len(g.codeCur) {
		return fmt.Errorf("workload: code cursors sized for %d threads, generator has %d", len(s.CodeCur), len(g.codeCur))
	}
	for i, st := range s.Srcs {
		if err := g.srcs[i].SetState(st); err != nil {
			return err
		}
		// g.rngs[i] wraps g.srcs[i], which was mutated in place — no
		// rewiring needed.
	}
	copy(g.seqCur, s.SeqCur)
	copy(g.chaseAt, s.ChaseAt)
	copy(g.lastVA, s.LastVA)
	copy(g.codeCur, s.CodeCur)
	return nil
}
