package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"seesaw/internal/service"
	"seesaw/internal/sim"
	"seesaw/internal/workload"
)

// TestSweepClusterMatchesLocal pins the cluster mode's core promise: the
// same grid submitted through -cluster (here: a real in-process job
// server behind httptest) produces a byte-identical table to the local
// pool, because cells are registered and reduced in the same order and
// service.SpecFromConfig proves every cell's wire round-trip exact.
func TestSweepClusterMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sweep twice")
	}
	o := testSweepOptions(t, 2)
	o.refs = 2_000
	localTb, fails, err := sweepTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("local sweep reported failures: %v", fails)
	}

	svc := service.New(service.Config{QueueDepth: 8, Workers: 4, MaxCellsPerJob: 1024})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	co := testSweepOptions(t, 0)
	co.refs = 2_000
	co.clusterURL = srv.URL
	clusterTb, fails, err := sweepTable(co)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 0 {
		t.Fatalf("cluster sweep reported failures: %v", fails)
	}
	local, remote := localTb.String(), clusterTb.String()
	if local != remote {
		t.Errorf("cluster sweep differs from local:\n--- local ---\n%s\n--- cluster ---\n%s", local, remote)
	}
}

// TestSweepClusterReportsJobFailure: a sweep pointed at a dead address
// degrades to a full table of recorded failures, not a crash or hang.
func TestSweepClusterReportsJobFailure(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // refuse every connection
	o := testSweepOptions(t, 0)
	o.refs = 1_000
	o.sizesKB = []float64{32}
	o.clusterURL = srv.URL
	tb, fails, err := sweepTable(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) == 0 {
		t.Fatal("unreachable cluster produced no recorded failures")
	}
	if !strings.Contains(tb.String(), "failed") {
		t.Errorf("table rows not marked failed:\n%s", tb.String())
	}
}

// TestSpecFromConfig covers the wire mapping cluster mode relies on:
// sweep cells (including chaos cells with fault schedules) round-trip to
// the same canonical key, and configs the wire format cannot express are
// rejected.
func TestSpecFromConfig(t *testing.T) {
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Config{
		Workload: p, Seed: 42, Refs: 5_000,
		CacheKind: sim.KindSeesaw, L1Size: 64 << 10, L1Ways: 16, Partitions: 4,
		FreqGHz: 1.33, CPUKind: "ooo", MemBytes: 512 << 20,
		WarmupRefs: 1_000, CheckInvariants: true,
	}
	chaosCell := base
	chaosCell.CacheKind = sim.KindPIPT
	chaosCell.L1Size = 32 << 10
	chaosCell.L1Ways = 4
	chaosCell.Partitions = 0
	chaosCell.SerialTLBCycles = 2
	chaosCell.SmallTLB = true
	chaosCell.MemhogFraction = 0.4
	chaosCell.Faults = &sim.FaultsConfig{Schedule: "mix", Every: 500, Seed: 7}
	negRefs := base
	negRefs.Refs = -1 // the explicit "zero references" sentinel
	for name, cfg := range map[string]sim.Config{
		"sweep cell": base,
		"chaos cell": chaosCell,
		"zero refs":  negRefs,
	} {
		spec, err := service.SpecFromConfig(cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		back, err := spec.Config()
		if err != nil {
			t.Errorf("%s: spec.Config: %v", name, err)
			continue
		}
		want, _ := cfg.CanonicalKey()
		got, _ := back.CanonicalKey()
		if want != got {
			t.Errorf("%s: canonical key drifted:\n want %s\n  got %s", name, want, got)
		}
	}

	counters := base
	counters.Metrics = &sim.MetricsConfig{EventCap: -1}
	if _, err := service.SpecFromConfig(counters); err == nil {
		t.Error("counters-only metrics must be rejected (no wire form)")
	}
	epochs := base
	epochs.Metrics = &sim.MetricsConfig{EpochRefs: 500, EventCap: -1}
	if _, err := service.SpecFromConfig(epochs); err != nil {
		t.Errorf("epoch metrics must map to epoch_refs: %v", err)
	}
}
