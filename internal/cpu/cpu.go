// Package cpu provides the two core timing models of the paper's Table
// II: an out-of-order core modeled on Intel Sandybridge (168-entry ROB,
// 54-entry scheduler, 4-wide issue) and an in-order dual-issue core
// modeled on Intel Atom.
//
// Both are analytic pipeline models rather than full microarchitectural
// simulators: each retired instruction contributes issue bandwidth, and
// each memory access contributes a stall that depends on how much of its
// latency the core can hide. The models encode exactly the interactions
// the paper's evaluation turns on:
//
//   - The in-order core exposes the full L1 latency on every load, so
//     SEESAW's fast path helps more there (Fig 9 vs Fig 8).
//   - The out-of-order core hides most independent-load latency with its
//     instruction window, but dependent (pointer-chase) loads and the
//     scheduler's speculative wakeup keep L1 latency on the critical
//     path.
//   - Variable-hit-latency designs interact with speculative scheduling
//     (Section IV-B3): the scheduler wakes dependents assuming the fast
//     hit time; a slow hit squashes and replays them. When superpages
//     are scarce (2MB-TLB occupancy below ¼), the scheduler assumes the
//     slow time instead, forfeiting latency (but not energy) benefits.
package cpu

import "fmt"

// MemCost describes one memory access to a core model.
type MemCost struct {
	// Hit reports an L1 hit.
	Hit bool
	// IsStore marks stores (retired through the store buffer; they
	// rarely stall the pipeline).
	IsStore bool
	// Dep marks the access as data-dependent on the previous load
	// (pointer chase): its latency cannot be hidden.
	Dep bool
	// L1Cycles is the actual L1 lookup latency taken.
	L1Cycles int
	// SlowL1Cycles is the design's slow (full-set) hit latency.
	SlowL1Cycles int
	// AssumedFast reports the scheduler speculated the fast hit time
	// for this access (SEESAW designs; always false for fixed-latency
	// designs).
	AssumedFast bool
	// ExtraCycles is latency beyond the L1 lookup: TLB L2/walk penalty
	// plus miss service time.
	ExtraCycles int
}

// SquashPenalty is the replay cost when dependents were speculatively
// woken for a fast hit that turned out slow (Section IV-B3). It is a
// single cycle: the TFT resolves in about a quarter of the cycle time
// (Section IV-A2), so the slow-path signal arrives early enough to
// cancel most speculative wakeups before dependents issue — what remains
// is a one-cycle reschedule bubble rather than a full replay.
const SquashPenalty = 1

// Model is a core timing model.
type Model interface {
	// Name identifies the model.
	Name() string
	// Retire advances time by one memory access and the gap of
	// non-memory instructions that preceded it.
	Retire(gap int, mem MemCost)
	// Stall charges raw cycles (OS events such as TLB-shootdown
	// instructions).
	Stall(cycles int)
	// Cycles returns total cycles so far.
	Cycles() uint64
	// Instructions returns total retired instructions.
	Instructions() uint64
}

// IPC computes instructions per cycle for a model.
func IPC(m Model) float64 {
	if m.Cycles() == 0 {
		return 0
	}
	return float64(m.Instructions()) / float64(m.Cycles())
}

// loadUseLatency resolves the effective load-to-use L1 latency including
// scheduler speculation effects on hits.
func loadUseLatency(mem MemCost, speculative bool) int {
	l1 := mem.L1Cycles
	if !mem.Hit {
		// Misses squash dependents on every design; the differential
		// SEESAW effect is on hits, so charge the actual latency.
		return l1 + mem.ExtraCycles
	}
	if speculative {
		if mem.AssumedFast {
			if l1 >= mem.SlowL1Cycles && mem.SlowL1Cycles > 0 && l1 > 1 {
				// Speculated fast, got slow: squash and replay.
				l1 += SquashPenalty
			}
		} else if l1 < mem.SlowL1Cycles {
			// Scheduler assumed the slow time: data may be ready early
			// but dependents were not woken until the slow slot.
			l1 = mem.SlowL1Cycles
		}
	}
	return l1 + mem.ExtraCycles
}

// InOrder is the Atom-like dual-issue in-order core.
type InOrder struct {
	cycles float64
	instrs uint64
}

// NewInOrder creates the in-order model.
func NewInOrder() *InOrder { return &InOrder{} }

// Name implements Model.
func (c *InOrder) Name() string { return "inorder" }

// Retire implements Model. In-order pipelines expose the full load-to-use
// latency (no speculation on variable hit latency: the pipeline simply
// waits, so SEESAW needs no squash logic here). Stores drain through a
// small store buffer and rarely stall.
func (c *InOrder) Retire(gap int, mem MemCost) {
	c.instrs += uint64(gap) + 1
	c.cycles += float64(gap) / 2.0 // dual issue
	lat := float64(loadUseLatency(mem, false))
	if mem.IsStore {
		c.cycles += 1 + 0.1*lat
	} else {
		c.cycles += lat
	}
}

// Stall implements Model.
func (c *InOrder) Stall(cycles int) { c.cycles += float64(cycles) }

// Cycles implements Model.
func (c *InOrder) Cycles() uint64 { return uint64(c.cycles) }

// Instructions implements Model.
func (c *InOrder) Instructions() uint64 { return c.instrs }

// OutOfOrder is the Sandybridge-like core.
type OutOfOrder struct {
	// IssueWidth and HideWindow parameterize the analytic model:
	// HideWindow is the latency (cycles) the ROB/scheduler can overlap
	// for an independent load (~ROB size / issue width).
	IssueWidth float64
	HideWindow float64
	// IndepFactor is the fraction of an independent load's in-window
	// latency that still stalls retirement (consumers in the window).
	IndepFactor float64
	// BeyondFactor is the exposed fraction of latency beyond the
	// window (MLP overlaps the rest).
	BeyondFactor float64

	cycles float64
	instrs uint64
}

// NewOutOfOrder creates the Sandybridge-like model (168-entry ROB /
// 4-wide → ~40-cycle hide window).
func NewOutOfOrder() *OutOfOrder {
	return &OutOfOrder{IssueWidth: 4, HideWindow: 40, IndepFactor: 0.35, BeyondFactor: 0.5}
}

// Name implements Model.
func (c *OutOfOrder) Name() string { return "ooo" }

// Retire implements Model.
func (c *OutOfOrder) Retire(gap int, mem MemCost) {
	c.instrs += uint64(gap) + 1
	c.cycles += (float64(gap) + 1) / c.IssueWidth
	lat := float64(loadUseLatency(mem, true))
	switch {
	case mem.IsStore:
		c.cycles += 0.05 * lat // store buffer absorbs nearly everything
	case mem.Dep:
		c.cycles += lat // serialized: nothing to overlap
	default:
		in := lat
		if in > c.HideWindow {
			in = c.HideWindow
		}
		c.cycles += c.IndepFactor*in + c.BeyondFactor*(lat-in)
	}
}

// Stall implements Model.
func (c *OutOfOrder) Stall(cycles int) { c.cycles += float64(cycles) }

// Cycles implements Model.
func (c *OutOfOrder) Cycles() uint64 { return uint64(c.cycles) }

// Instructions implements Model.
func (c *OutOfOrder) Instructions() uint64 { return c.instrs }

// New creates a model by kind name ("ooo" or "inorder").
func New(kind string) (Model, error) {
	switch kind {
	case "ooo":
		return NewOutOfOrder(), nil
	case "inorder":
		return NewInOrder(), nil
	}
	return nil, fmt.Errorf("cpu: unknown core model %q", kind)
}
