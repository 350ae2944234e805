package machine

import (
	"context"
	"fmt"

	"seesaw/internal/addr"
	"seesaw/internal/check"
	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/trace"
)

// Hooks bundles the optional cross-cutting observers wired into a
// machine: the metrics recorder, the invariant checker, and the fault
// injector. The machine builds each one its config asks for when it
// starts the measured phase live (the injector also when it records its
// front end for a Group's pass); every emit site is nil-safe or
// nil-checked, so an unhooked machine pays one branch per site.
type Hooks struct {
	// Metrics mirrors counters and events into the observability layer
	// (nil unless Config.Metrics).
	Metrics *metrics.Recorder
	// Checker audits TLB/TFT/cache/directory state against page-table
	// ground truth after every reference and OS event (nil unless
	// Config.CheckInvariants).
	Checker *check.Checker
	// Injector produces the deterministic fault schedule (nil unless
	// Config.Faults).
	Injector *faults.Injector
}

// Machine is the simulated system: a front end (the OS with its page
// tables, the workload generators, the TLBs and the fault injector;
// frontend.go) feeding a back end (the L1s and TFTs, coherence and the
// LLC, energy, and the CPU timing members; backend.go). Build
// constructs one; Step advances it a single reference; Warmup and
// Measure run the two phases; Snapshot copies the warm OS half, and
// Snapshot.Resume and Snapshot.Fork continue from it (snapshot.go).
//
// Each half is constructed when a phase first needs it: the warmup
// phase needs only the OS half, a live measured phase needs both, and a
// machine a Group's pass answers (group.go) needs neither.
type Machine struct {
	cfg Config

	// Hooks holds the machine's cross-cutting observers.
	Hooks Hooks

	// nCores counts the application threads plus the system thread;
	// schedule interleaves them, one slot per reference.
	nCores   int
	schedule []int

	// fe and be are the two halves, nil until needed. base, when set, is
	// the snapshot whose OS half fe is cloned from on first need. live
	// is set once both halves are ready to run the measured phase live.
	fe   *frontEnd
	be   *backEnd
	base *Snapshot
	live bool

	// epoch holds the records of the epoch being executed (never
	// copied; sized lazily on first use).
	epoch epochBuf
	// handed is the report a Group's pass built for this machine, which
	// then measures nothing.
	handed *Report

	// globalRef is the next reference index to execute; references
	// [0, WarmupRefs) are the warmup phase, [WarmupRefs,
	// WarmupRefs+Refs) the measured phase.
	globalRef int
}

// mainASID is the measured application's address space; the co-runner
// (when configured) runs as coASID.
const (
	mainASID = 1
	coASID   = 2
)

// epochRefs is the longest epoch: run polls its context before every
// epoch, so 4096 references is cheap enough to be invisible next to the
// work of one reference yet responsive enough that a canceled or
// timed-out cell unwinds within a fraction of a millisecond.
const epochRefs = 1 << 12

// Build validates cfg and returns a machine positioned at reference 0;
// run it with Warmup then Measure, or drive it manually with Step. It
// returns every error Validate does. A machine is constructed when a
// phase first needs it: the OS half for the warmup phase or a live
// measured phase, the back end when the measured phase starts, so
// errors only construction can find (a footprint that does not fit in
// memory) come from the phase that first needs it. A trace replay is
// the exception: it has no canonical key, so no group answers it and no
// recording feeds it, and Build constructs it whole, ready to run live.
func Build(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newMachine(cfg.WithDefaults())
	if cfg.Trace != nil {
		if err := m.ensureLive(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newMachine returns an unconstructed machine for a defaults-applied
// config. Each application thread runs 8 references per system thread
// reference, approximating the paper's traces of the target application
// plus background system activity.
func newMachine(cfg Config) *Machine {
	threads := cfg.Workload.Threads
	m := &Machine{cfg: cfg, nCores: threads + 1}
	m.schedule = make([]int, 0, 8*threads+1)
	for t := 0; t < threads; t++ {
		for k := 0; k < 8; k++ {
			m.schedule = append(m.schedule, t)
		}
	}
	m.schedule = append(m.schedule, threads) // the system thread
	return m
}

// Config returns the machine's configuration with defaults applied.
func (m *Machine) Config() Config { return m.cfg }

// ensureOS constructs the OS half if the machine has none: a copy of
// its snapshot's, or a fresh one at reference 0.
func (m *Machine) ensureOS() error {
	if m.fe != nil {
		return nil
	}
	if m.base != nil {
		m.fe = m.base.cloneOS(m.cfg)
		m.base = nil
		return nil
	}
	fe, err := buildOS(m.cfg, m.nCores)
	if err != nil {
		return err
	}
	m.fe = fe
	return nil
}

// metricsRecorder returns the machine's metrics recorder, creating it
// on first use (nil unless Config.Metrics). One recorder spans the whole
// coherence domain: data caches 0..nCores-1, instruction caches
// nCores..2nCores-1.
func (m *Machine) metricsRecorder() *metrics.Recorder {
	if m.cfg.Metrics != nil && m.Hooks.Metrics == nil {
		recCores := m.nCores
		if m.cfg.ICache {
			recCores = 2 * m.nCores
		}
		m.Hooks.Metrics = metrics.New(*m.cfg.Metrics, recCores, m.cfg.Refs)
	}
	return m.Hooks.Metrics
}

// ensureBack constructs the back end if the machine has none.
func (m *Machine) ensureBack() error {
	if m.be != nil {
		return nil
	}
	be, err := newBackEnd(m.cfg, m.nCores, m.metricsRecorder())
	if err != nil {
		return err
	}
	m.be = be
	return nil
}

// ensureFront readies the front end for the measured phase, its output
// going to out.
func (m *Machine) ensureFront(out sink) error {
	m.live = false
	if err := m.ensureOS(); err != nil {
		return err
	}
	if m.fe.hiers == nil {
		if err := m.fe.startMeasured(m.metricsRecorder(), out); err != nil {
			return err
		}
		m.fe.at = m.cfg.WarmupRefs
		m.Hooks.Injector = m.fe.inj
	}
	m.fe.out = out
	return nil
}

// ensureLive readies the machine to run its measured phase live: both
// halves, the front end's output going straight to the back end, and
// the invariant checker spanning them when the config asks for it.
func (m *Machine) ensureLive() error {
	if m.live {
		return nil
	}
	if err := m.ensureBack(); err != nil {
		return err
	}
	if err := m.ensureFront(m.be); err != nil {
		return err
	}
	if m.cfg.CheckInvariants && m.Hooks.Checker == nil {
		chk := check.New(check.Wiring{
			L1s: m.be.cohAll, Hiers: m.fe.hiers, Seesaws: m.be.seesaws, ISeesaws: m.be.iseesaws,
			Coh: m.be.cohSys, Mgr: m.fe.mgr,
		})
		chk.Metrics = m.Hooks.Metrics
		m.Hooks.Checker, m.be.chk = chk, chk
	}
	m.live = true
	return nil
}

// Step executes the next reference — a warmup step while the machine is
// inside [0, WarmupRefs), a full measured step afterwards — and
// advances the reference cursor. It runs a one-reference epoch, so its
// record is drawn exactly as Warmup and Measure draw theirs; a replayed
// trace is read at the cursor. Stepping past the end of the measured
// phase is an error.
func (m *Machine) Step() error {
	if end := m.cfg.WarmupRefs + m.cfg.Refs; m.globalRef >= end {
		return fmt.Errorf("sim: step past the end of the measured phase (at ref %d, end is %d)", m.globalRef, end)
	}
	return m.runEpoch(1)
}

// epochBuf holds the records of one epoch: recs[j] is reference
// cursor+j, and ivas/jumps carry its instruction fetch when the I-cache
// is modeled in the measured phase. The buffer is sized for the longest
// epoch and reused from epoch to epoch, and every epoch executes in full
// before the next is drawn, so the generators never run ahead of the
// front end.
type epochBuf struct {
	recs  []trace.Record
	ivas  []addr.VAddr
	jumps []bool
}

// fill draws the n records starting at reference g into the epoch
// buffer; the range must not span the warmup boundary (the phases draw
// differently). A replayed trace is read at g, with the instruction
// fetches drawn from the generator. Otherwise the generator draws the
// epoch (draw).
func (m *Machine) fill(g, n int) error {
	e := &m.epoch
	if e.recs == nil {
		e.recs = make([]trace.Record, epochRefs)
		e.ivas = make([]addr.VAddr, epochRefs)
		e.jumps = make([]bool, epochRefs)
	}
	e.recs, e.ivas, e.jumps = e.recs[:n], e.ivas[:n], e.jumps[:n]
	icache := g >= m.cfg.WarmupRefs && m.cfg.ICache
	gen := m.fe.gen
	if m.cfg.Trace == nil {
		m.draw(g, icache)
		return nil
	}
	for j := range e.recs { // never with a warmup phase (core.RuleTraceWarmup)
		rec := m.cfg.Trace[g+j]
		if int(rec.TID) >= m.nCores {
			return fmt.Errorf("sim: trace record %d names thread %d but the system has %d cores",
				g+j, rec.TID, m.nCores)
		}
		e.recs[j] = rec
		if icache {
			e.ivas[j], e.jumps[j] = gen.NextCode(int(rec.TID), int(rec.Gap)+1)
		}
	}
	return nil
}

// draw fills the epoch buffer with the generator's records for the
// references starting at index g, and their instruction fetches when
// icache is set. It goes thread by thread, each thread's references in
// program order: generator state is per thread (each tid owns its RNG,
// cursors and last VA), so the buffer equals a draw in schedule order,
// and each thread's state stays hot for its whole slice.
func (m *Machine) draw(g int, icache bool) {
	s, gen, e := m.schedule, m.fe.gen, &m.epoch
	for tid := 0; tid < m.nCores; tid++ { // the app threads, then the system thread
		pos := g % len(s)
		for j := range e.recs {
			if s[pos] == tid {
				rec := gen.Next(tid)
				e.recs[j] = rec
				if icache {
					e.ivas[j], e.jumps[j] = gen.NextCode(tid, int(rec.Gap)+1)
				}
			}
			if pos++; pos == len(s) {
				pos = 0
			}
		}
	}
}

// frontEpoch runs the front end over the n references starting at g,
// its output going to the front end's sink, and returns how many
// references it completed.
func (m *Machine) frontEpoch(g, n int) (int, error) {
	if err := m.fill(g, n); err != nil {
		return 0, err
	}
	e := &m.epoch
	for j := range e.recs {
		if err := m.fe.step(g+j, &e.recs[j], e.ivas[j], e.jumps[j]); err != nil {
			m.fe.at = g + j
			return j, err
		}
	}
	m.fe.at = g + n
	return n, nil
}

// runEpoch runs the n-reference epoch at the cursor. A warmup epoch
// runs the OS half alone. A measured epoch runs live, the two halves
// interleaved reference by reference in schedule order: coherence
// couples the cores (LLC recency, directory state, snoops and
// back-invalidations land on every miss), so execution order is what
// keeps reports byte-identical.
func (m *Machine) runEpoch(n int) error {
	if m.globalRef < m.cfg.WarmupRefs {
		if err := m.ensureOS(); err != nil {
			return err
		}
		if err := m.fill(m.globalRef, n); err != nil {
			return err
		}
		for _, rec := range m.epoch.recs {
			m.fe.stepWarmup(m.globalRef, rec)
			m.globalRef++
		}
		return nil
	}
	if err := m.ensureLive(); err != nil {
		return err
	}
	done, err := m.frontEpoch(m.globalRef, n)
	m.globalRef += done
	return err
}

// run is the one reference loop behind Warmup, WarmupTo and Measure: it
// advances the machine to end an epoch at a time. An epoch runs to the
// next multiple of 4096 references, end or the warmup boundary,
// whichever is nearest, and ctx is polled before each one, so a
// canceled cell unwinds within one epoch and leaves no drawn record
// unexecuted.
func (m *Machine) run(ctx context.Context, end int) error {
	for m.globalRef < end {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(epochRefs-m.globalRef%epochRefs, end-m.globalRef)
		if w := m.cfg.WarmupRefs; m.globalRef < w {
			n = min(n, w-m.globalRef)
		}
		if err := m.runEpoch(n); err != nil {
			return err
		}
	}
	return nil
}

// Warmup runs the OS-only warmup phase to its boundary. It is a no-op
// when WarmupRefs is zero or the phase already ran.
func (m *Machine) Warmup(ctx context.Context) error {
	return m.run(ctx, m.cfg.WarmupRefs)
}

// Measure runs the measured phase: cfg.Refs fully modeled references
// starting at the warmup boundary. When ctx is canceled the loop stops
// at the next poll point and returns ctx's error — this is how the
// runner's per-cell timeout and the service's per-job cancellation
// reclaim a stuck or abandoned cell. When ctx carries a Group (see
// WithGroup) and the machine sits at its boundary, a member whose report
// the group's pass built takes it and measures nothing, and the first
// member to arrive runs the pass for the whole group (group.go).
func (m *Machine) Measure(ctx context.Context) error {
	end := m.cfg.WarmupRefs + m.cfg.Refs
	if g, _ := ctx.Value(groupCtxKey{}).(*Group); g != nil && m.globalRef == m.cfg.WarmupRefs {
		rep, backs, err := g.join(m.cfg)
		switch {
		case err != nil:
			return err
		case rep != nil:
			m.handed, m.globalRef = rep, end
			return nil
		case backs != nil:
			return m.runPass(ctx, g, backs)
		}
	}
	return m.run(ctx, end)
}
