package machine

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/faults"
)

// TestZooConformance is the registry conformance battery: every design
// in the zoo — present and future — must pass the machine-level
// contracts the harness layers lean on. The legs here cover
// build-by-name and snapshot isolation; the two heavyweight legs run
// registry-wide in their own tests (fork-equals-cold in
// TestForkEqualsCold, the mid-warmup snapshot codec round-trip in
// TestCodecRoundTripMidEpoch), and the chaos leg below drives every
// fault schedule under the online invariant checker.
func TestZooConformance(t *testing.T) {
	for _, name := range DesignNames() {
		kind := CacheKind(name)
		t.Run(name, func(t *testing.T) {
			t.Run("build-by-name", func(t *testing.T) {
				cfg := testConfig(t, kind)
				m, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The name must route to the registered design's own
				// builder: every core's L1 has the type that builder makes.
				d, ok := core.LookupDesign(name)
				if !ok {
					t.Fatalf("design %q is not registered", name)
				}
				ref, err := d.New(m.cfg.l1cfg())
				if err != nil {
					t.Fatal(err)
				}
				if err := m.ensureBack(); err != nil {
					t.Fatal(err)
				}
				for i, l1 := range m.be.l1s {
					if reflect.TypeOf(l1) != reflect.TypeOf(ref) {
						t.Fatalf("core %d built a %T, design %q builds a %T", i, l1, name, ref)
					}
				}
			})

			t.Run("clone-deep-copy", func(t *testing.T) {
				// A snapshot taken at the warmup boundary must be isolated
				// from the machine it was taken from: running the original
				// to completion (its promotion scans and splinters move the
				// OS half too) cannot change what the snapshot resumes to.
				ctx := context.Background()
				cfg := testConfig(t, kind)
				m := warmMaster(t, cfg)
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				before := reportText(t, snap.Resume())
				if err := m.Measure(ctx); err != nil {
					t.Fatal(err)
				}
				after := reportText(t, snap.Resume())
				if !bytes.Equal(before, after) {
					t.Errorf("running the original changed the snapshot's resume — clone shares state:\nbefore:\n%s\nafter:\n%s",
						before, after)
				}
			})

			t.Run("chaos-invariants", func(t *testing.T) {
				if testing.Short() {
					t.Skip("chaos leg is a multi-schedule run")
				}
				for _, sched := range faults.Schedules() {
					cfg := testConfig(t, kind)
					cfg.Refs = 12_000
					cfg.WarmupRefs = 8_000
					cfg.CheckInvariants = true
					cfg.Faults = &faults.Config{Schedule: sched, Every: 3_000}
					if err := cfg.Validate(); err != nil {
						t.Fatal(err)
					}
					m, err := Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ctx := context.Background()
					if err := m.Warmup(ctx); err != nil {
						t.Fatal(err)
					}
					if err := m.Measure(ctx); err != nil {
						t.Fatal(err)
					}
					r, err := m.Report()
					if err != nil {
						t.Fatal(err)
					}
					if r.Faults == nil || r.Faults.Injected == 0 {
						t.Errorf("schedule %s injected no faults", sched)
					}
					if r.Check == nil || r.Check.Checks == 0 {
						t.Errorf("schedule %s ran no invariant checks", sched)
					} else if r.Check.Violations != 0 {
						t.Errorf("schedule %s: %d invariant violations", sched, r.Check.Violations)
					}
				}
			})
		})
	}
}
