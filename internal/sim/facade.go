package sim

import (
	"seesaw/internal/check"
	"seesaw/internal/core"
	"seesaw/internal/faults"
	"seesaw/internal/machine"
	"seesaw/internal/metrics"
)

// This file re-exports the leaf-config vocabularies commands need to
// populate a Config and render a Report, so cmd/ depends on the sim
// surface alone rather than on every internal substrate package (the
// tools/importgate check enforces that boundary).

// FaultsConfig configures the deterministic fault injector
// (Config.Faults).
type FaultsConfig = faults.Config

// FaultSchedules lists the named fault schedules, for flag help and
// chaos sweeps.
func FaultSchedules() []string { return faults.Schedules() }

// FaultKindName renders a fault-kind event argument (metrics.EvFault's
// Arg) by name.
func FaultKindName(arg uint64) string { return faults.Kind(arg).String() }

// CheckKindName renders an invariant-violation event argument
// (EvViolation's Arg) by name.
func CheckKindName(arg uint64) string { return check.KindName(arg) }

// MetricsConfig configures the observability layer (Config.Metrics).
type MetricsConfig = metrics.Config

// MetricsSeries is the epoch time-series a metrics-enabled run reports
// (Report.Metrics) and a pool merges across cells.
type MetricsSeries = metrics.Series

// Event is one entry of the structured event ring; EvFault and
// EvViolation are the kinds whose arguments commands render by name.
type Event = metrics.Event

const (
	EvFault     = metrics.EvFault
	EvViolation = metrics.EvViolation
)

// PromMetric is one extra gauge appended to a Prometheus snapshot.
type PromMetric = metrics.PromMetric

// FourEightWay is the 4/8-way insertion-policy ablation knob
// (Config.Policy).
const FourEightWay = core.FourEightWay

// ConfigError is the typed rejection Config.Validate returns for knob
// combinations it can attribute to a single constraint (unwrap with
// errors.As); its Rule is one of the stable machine-readable
// identifiers declared in internal/core. The evolutionary search
// (internal/evolve) prunes invalid genomes on these instead of crashing
// a worker.
type (
	ConfigError = machine.ConfigError
	Rule        = machine.Rule
)
