// Package sim is the one-call front door to the whole-system simulator:
// Run (or RunContext) takes a Config, executes the warmup and measured
// phases, and returns the Report the experiment harness turns into the
// paper's tables and figures.
//
// The simulated machine itself — construction and wiring of physical
// memory, the OS memory manager, per-core TLB hierarchies, TFTs, L1
// data/instruction caches, the coherent LLC, and CPU timing models, plus
// per-reference execution and warm-state snapshots — lives in
// internal/machine. This package re-exports the machine's Config and
// Report types (and, in facade.go, the few leaf-config vocabularies
// commands need) so callers depend on one stable surface.
//
// RunContext runs one cell cold, warmup included. runner.New pools do
// not call it for warmed cells: they fork every cell from one warmed
// master per warmup signature (climbing a store's snapshot ladder when
// one is open), and RunContext stays the reference those forked reports
// are tested against, byte for byte.
package sim

import (
	"context"

	"seesaw/internal/machine"
)

// CacheKind selects the L1 design under test by registry name.
type CacheKind = machine.CacheKind

const (
	// KindBaseline is the conventional VIPT L1.
	KindBaseline = machine.KindBaseline
	// KindSeesaw is the paper's design.
	KindSeesaw = machine.KindSeesaw
	// KindPIPT is the serial physically-indexed alternative (Fig 14).
	KindPIPT = machine.KindPIPT
	// KindVespa is the superpage-aware VIPT alternative (no TFT).
	KindVespa = machine.KindVespa
)

// ParseCacheKind resolves a design name against the registry, returning
// a typed ConfigError (core.RuleUnknownDesign) for unknown spellings instead
// of silently defaulting to baseline.
func ParseCacheKind(name string) (CacheKind, error) {
	return machine.ParseCacheKind(name)
}

// DesignNames lists every registered L1 design in registration order,
// for flag help and sweep enumeration.
func DesignNames() []string { return machine.DesignNames() }

// DesignInfo is one registered design's enumeration metadata.
type DesignInfo = machine.DesignInfo

// DesignInfos lists every registered design's metadata in registration
// order, for registry-derived menus and sweep matrices.
func DesignInfos() []DesignInfo { return machine.DesignInfos() }

// Config describes one simulation. See machine.Config for the full
// field documentation.
type Config = machine.Config

// Report is the result of one simulation.
type Report = machine.Report

// TFTReport aggregates TFT behavior across cores.
type TFTReport = machine.TFTReport

// SchemaVersion identifies the Report wire format for persisted
// results; internal/store folds it into every content address.
const SchemaVersion = machine.SchemaVersion

// Run executes one simulation.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation under ctx: when ctx is canceled the
// reference loop stops at the next poll point and returns ctx's error,
// releasing the goroutine and every structure the run allocated. This is
// how the runner's per-cell timeout and the service's per-job
// cancellation actually reclaim a stuck or abandoned cell instead of
// leaking it.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	m, err := machine.Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Warmup(ctx); err != nil {
		return nil, err
	}
	if err := m.Measure(ctx); err != nil {
		return nil, err
	}
	return m.Report()
}
