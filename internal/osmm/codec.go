package osmm

import (
	"fmt"
	"slices"

	"seesaw/internal/addr"
	"seesaw/internal/pagetable"
)

// ProcessState is one address space's serializable state.
type ProcessState struct {
	ASID   uint16
	PT     pagetable.TableState
	NextVA addr.VAddr
	NoHuge []Range
}

// ManagerState is the OS memory manager's serializable state: every
// process, in creation order, plus the event counters. The buddy, RNG,
// compactor, and the OnInvlpg/OnPromote hooks are wiring, restored by
// the owner.
type ManagerState struct {
	Procs []ProcessState
	Stats Stats
}

// State captures the manager and every process it manages.
func (m *Manager) State() ManagerState {
	s := ManagerState{Stats: m.Stats}
	for _, p := range m.procs {
		s.Procs = append(s.Procs, ProcessState{
			ASID: p.ASID, PT: p.PT.State(), NextVA: p.nextVA, NoHuge: slices.Clone(p.noHuge),
		})
	}
	return s
}

// SetState restores the manager in place. Every process in the state
// must already exist on the receiver (the machine is rebuilt from the
// same config before state is applied, so the address spaces match);
// each is mutated in place, its *Process and *pagetable.Table identities
// preserved, so page walkers and the machine's process pointer observe
// the restored space without rewiring.
func (m *Manager) SetState(s ManagerState) error {
	if len(s.Procs) != len(m.procs) {
		return fmt.Errorf("osmm: state has %d processes, manager has %d", len(s.Procs), len(m.procs))
	}
	for _, ps := range s.Procs {
		p := m.Process(ps.ASID)
		if p == nil {
			return fmt.Errorf("osmm: state names unknown ASID %d", ps.ASID)
		}
		if err := p.PT.SetState(ps.PT); err != nil {
			return err
		}
		p.nextVA = ps.NextVA
		p.noHuge = slices.Clone(ps.NoHuge)
	}
	m.Stats = s.Stats
	return nil
}
