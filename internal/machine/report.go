package machine

import (
	"fmt"
	"io"

	"seesaw/internal/check"
	"seesaw/internal/coherence"
	"seesaw/internal/core"
	"seesaw/internal/energy"
	"seesaw/internal/faults"
	"seesaw/internal/metrics"
	"seesaw/internal/stats"
)

// TFTReport carries the Fig 13 metrics.
type TFTReport struct {
	Lookups uint64
	HitRate float64
	// SuperMissedPct is the percentage of superpage accesses the TFT
	// failed to identify, split by whether the data cache hit.
	SuperMissedPct       float64
	SuperMissedL1HitPct  float64
	SuperMissedL1MissPct float64
	SuperAccesses        uint64
	FastHits, FastMisses uint64
	// Flush/invalidation counters, summed over every TFT (data and
	// instruction side): how often the Section IV-C2/C3 invalidation
	// protocol actually fired, and how many stale fast-path hits the
	// invalidations demonstrably prevented.
	Fills            uint64
	Invalidations    uint64
	Flushes          uint64
	StaleHitsAvoided uint64
}

// SchemaVersion is the current Report JSON schema generation. Bump it
// whenever the meaning or layout of a Report field changes: the disk
// store (internal/store) treats an entry whose SchemaVersion differs
// from this value as a miss and recomputes the cell, so stale results
// from an older binary are never served. The golden schema test in
// internal/sim pins both this number and the field set; changing
// either without the other fails the build.
const SchemaVersion = 1

// Report is the outcome of one run.
type Report struct {
	// SchemaVersion stamps which Report generation produced this value
	// (see the SchemaVersion constant).
	SchemaVersion int

	Design   string
	Workload string

	Cycles       uint64 // slowest application core
	Instructions uint64 // application instructions
	IPC          float64
	RuntimeSec   float64

	L1Hits, L1Misses uint64
	MPKI             float64
	// L1I statistics (zero unless Config.ICache).
	L1IHits, L1IMisses uint64

	SuperpageCoverage float64 // of the mapped footprint
	SuperRefFraction  float64 // of executed references

	EnergyTotalNJ     float64
	EnergyCPUSideNJ   float64 // L1 CPU-side lookups + fills
	EnergyCoherenceNJ float64
	Energy            *energy.Account

	TFT TFTReport
	Coh coherence.Stats
	TLB struct {
		L1HitRate float64
		L2Lookups uint64
		Walks     uint64
	}
	WPAccuracy float64

	Promotions, Splinters uint64

	// Faults reports the injected-fault tally (nil unless Config.Faults).
	Faults *faults.Stats
	// Check reports the invariant-checker outcome (nil unless
	// Config.CheckInvariants).
	Check *check.Report
	// Metrics carries the epoch time-series and event log (nil unless
	// Config.Metrics).
	Metrics *metrics.Series
}

// WriteText renders the full human-readable report — timing, cache and
// TLB/TFT behaviour, coherence, OS activity, fault/check outcomes, and
// the energy breakdown. This is the exact output of seesaw-sim's default
// mode; the golden-report tests pin it byte for byte.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "design:    %s\n", r.Design)
	fmt.Fprintf(w, "workload:  %s\n", r.Workload)
	fmt.Fprintf(w, "cycles:    %d (IPC %.3f, runtime %.3f ms)\n", r.Cycles, r.IPC, r.RuntimeSec*1e3)
	fmt.Fprintf(w, "L1:        %d hits, %d misses (%.2f%% hit, MPKI %.1f)\n",
		r.L1Hits, r.L1Misses, 100*stats.Ratio(r.L1Hits, r.L1Hits+r.L1Misses), r.MPKI)
	if r.L1IHits+r.L1IMisses > 0 {
		fmt.Fprintf(w, "L1I:       %d hits, %d misses (%.2f%% hit)\n",
			r.L1IHits, r.L1IMisses, 100*stats.Ratio(r.L1IHits, r.L1IHits+r.L1IMisses))
	}
	fmt.Fprintf(w, "superpage: coverage %.1f%%, reference share %.1f%%\n",
		100*r.SuperpageCoverage, 100*r.SuperRefFraction)
	if r.TFT.Lookups > 0 {
		fmt.Fprintf(w, "TFT:       %.1f%% hit rate; %.2f%% of superpage accesses missed (%.2f%% L1-hit / %.2f%% L1-miss)\n",
			100*r.TFT.HitRate, r.TFT.SuperMissedPct, r.TFT.SuperMissedL1HitPct, r.TFT.SuperMissedL1MissPct)
		fmt.Fprintf(w, "TFT evts:  %d fills, %d invalidations, %d flushes, %d stale hits avoided\n",
			r.TFT.Fills, r.TFT.Invalidations, r.TFT.Flushes, r.TFT.StaleHitsAvoided)
	}
	fmt.Fprintf(w, "TLB:       %.2f%% L1 hit, %d L2 lookups, %d walks\n",
		100*r.TLB.L1HitRate, r.TLB.L2Lookups, r.TLB.Walks)
	fmt.Fprintf(w, "coherence: %d probes, %d invalidations, %d downgrades\n",
		r.Coh.ProbesSent, r.Coh.Invalidations, r.Coh.Downgrades)
	fmt.Fprintf(w, "OS:        %d promotions, %d splinters\n", r.Promotions, r.Splinters)
	if r.Faults != nil {
		fmt.Fprintf(w, "faults:    %d injected (%d splinters, %d shootdowns, %d ctx switches, %d promote storms, %d memhog spikes), %d skipped\n",
			r.Faults.Injected, r.Faults.Splinters, r.Faults.Shootdowns,
			r.Faults.ContextSwitches, r.Faults.PromoteStorms, r.Faults.MemhogSpikes, r.Faults.Skipped)
	}
	if r.Check != nil {
		fmt.Fprintf(w, "check:     %d invariant checks, %d violations\n", r.Check.Checks, r.Check.Violations)
		for _, v := range r.Check.Sample {
			fmt.Fprintf(w, "  VIOLATION %s\n", v.String())
		}
	}
	if r.WPAccuracy > 0 {
		fmt.Fprintf(w, "waypred:   %.1f%% accuracy\n", 100*r.WPAccuracy)
	}
	if r.Metrics != nil {
		m := r.Metrics
		fmt.Fprintf(w, "metrics:   %d epochs of %d refs; %d events emitted, %d dropped\n",
			len(m.Epochs), m.EpochRefs, m.EventsTotal, m.EventsDropped)
	}
	fmt.Fprintln(w)
	_, err := r.Energy.BreakdownTable(r.RuntimeSec).WriteTo(w)
	return err
}

// Report assembles the Report from the machine's component statistics.
// It is normally called once, after Measure; calling it mid-run yields
// a consistent snapshot of the statistics so far, and calling it again
// yields the same report. A machine that took its report from a Group's
// pass returns that report.
func (m *Machine) Report() (*Report, error) {
	if m.handed != nil {
		return m.handed, nil
	}
	if err := m.ensureBack(); err != nil {
		return nil, err
	}
	if err := m.ensureOS(); err != nil {
		return nil, err
	}
	return m.be.report(&m.be.members[0], m.fe.stats()), nil
}

// report assembles member mb's report from the back end's functional
// statistics, the front end's statistics fs, and mb's own CPU models and
// clock. It finishes its own copy of the energy account, so neither the
// back end's account nor an earlier report's changes.
func (be *backEnd) report(mb *member, fs frontStats) *Report {
	cfg := mb.cfg
	acct := *be.acct
	r := &Report{
		SchemaVersion: SchemaVersion,
		Design:        be.l1s[0].Name(),
		Workload:      cfg.Workload.Name,
		Energy:        &acct,
	}
	// Application timing: the slowest app core determines runtime.
	for t := 0; t < cfg.Workload.Threads; t++ {
		if c := mb.cpus[t].Cycles(); c > r.Cycles {
			r.Cycles = c
		}
		r.Instructions += mb.cpus[t].Instructions()
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.RuntimeSec = float64(r.Cycles) / (cfg.FreqGHz * 1e9)

	var tftLookups, tftHits uint64
	for i, l1 := range be.l1s {
		st := l1.Storage().Stats
		r.L1Hits += st.Hits
		r.L1Misses += st.Misses
		if s := be.seesaws[i]; s != nil {
			ts := s.TFT().Stats
			tftLookups += ts.Lookups
			tftHits += ts.Hits
			r.TFT.Fills += ts.Fills
			r.TFT.Invalidations += ts.Invalidations
			r.TFT.Flushes += ts.Flushes
			r.TFT.StaleHitsAvoided += ts.StaleHitsAvoided
			r.TFT.SuperAccesses += s.Stats.SuperAccesses
			r.TFT.FastHits += s.Stats.FastHits
			r.TFT.FastMisses += s.Stats.FastMisses
			missedHit := s.Stats.SuperTFTMissHits
			missedMiss := s.Stats.SuperTFTMissMisses
			if s.Stats.SuperAccesses > 0 {
				den := float64(s.Stats.SuperAccesses)
				r.TFT.SuperMissedPct += 100 * float64(missedHit+missedMiss) / den
				r.TFT.SuperMissedL1HitPct += 100 * float64(missedHit) / den
				r.TFT.SuperMissedL1MissPct += 100 * float64(missedMiss) / den
			}
		}
	}
	// Predictor accuracy (WP designs); report core 0's.
	if wp := be.l1s[0].Predictor(); wp != nil {
		r.WPAccuracy = wp.Accuracy()
	}
	// Average the per-core TFT percentages.
	if n := countSeesaws(be.seesaws); n > 0 {
		r.TFT.SuperMissedPct /= float64(n)
		r.TFT.SuperMissedL1HitPct /= float64(n)
		r.TFT.SuperMissedL1MissPct /= float64(n)
	}
	r.TFT.Lookups = tftLookups
	if tftLookups > 0 {
		r.TFT.HitRate = float64(tftHits) / float64(tftLookups)
	}
	if r.Instructions > 0 {
		r.MPKI = float64(r.L1Misses) / float64(r.Instructions) * 1000
	}
	for _, l1i := range be.l1is {
		st := l1i.Storage().Stats
		r.L1IHits += st.Hits
		r.L1IMisses += st.Misses
		if s, ok := l1i.(*core.Seesaw); ok {
			ts := s.TFT().Stats
			tftLookups += ts.Lookups
			r.TFT.Fills += ts.Fills
			r.TFT.Invalidations += ts.Invalidations
			r.TFT.Flushes += ts.Flushes
			r.TFT.StaleHitsAvoided += ts.StaleHitsAvoided
		}
	}
	r.SuperpageCoverage = fs.coverage
	if cfg.Refs > 0 {
		r.SuperRefFraction = float64(be.superRefs) / float64(cfg.Refs)
	}
	r.Promotions = fs.promotions
	r.Splinters = fs.splinters

	// Finish energy accounting from component stats.
	tlbLookups := uint64(cfg.Refs)
	if cfg.ICache {
		tlbLookups *= 2 // every instruction block also translates its fetch
	}
	acct.AddL1TLBLookups(tlbLookups)
	acct.AddL2TLBLookups(be.l2Lookups)
	acct.AddTFTLookups(tftLookups)
	acct.AddWalkLevels(fs.walkLevels)
	cs := be.cohSys.Stats
	acct.AddLLCAccesses(cs.LLCHits + cs.LLCMisses + cs.Writebacks)
	acct.AddDRAMAccesses(cs.DRAMReads + cs.DRAMWrites)
	acct.AddL1Coherence(be.cohSys.TotalCoherenceEnergyNJ())

	r.EnergyCPUSideNJ = acct.L1CPUSideNJ
	r.EnergyCoherenceNJ = acct.L1CoherenceNJ
	r.EnergyTotalNJ = acct.TotalNJ(r.RuntimeSec)
	r.Coh = cs
	r.TLB.L2Lookups = be.l2Lookups
	r.TLB.Walks = fs.walks
	// Translations resolved by the (parallel) L1 TLBs never reach the L2.
	if cfg.Refs > 0 {
		r.TLB.L1HitRate = 1 - float64(be.l2Lookups)/float64(cfg.Refs)
	}
	if fs.faults != nil {
		st := *fs.faults
		r.Faults = &st
	}
	if be.chk != nil {
		r.Check = be.chk.Report()
	}
	r.Metrics = be.mrec.Finish()
	return r
}

func countSeesaws(ss []*core.Seesaw) int {
	n := 0
	for _, s := range ss {
		if s != nil {
			n++
		}
	}
	return n
}
