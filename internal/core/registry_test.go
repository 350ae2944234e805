package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
)

// TestRegistryEnumeration pins the zoo's canonical order and the lookup
// surfaces every harness layer leans on.
func TestRegistryEnumeration(t *testing.T) {
	want := []string{"baseline", "seesaw", "pipt", "vespa"}
	if got := DesignNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DesignNames() = %v, want %v", got, want)
	}
	sorted := SortedDesignNames()
	if !sort.StringsAreSorted(sorted) || len(sorted) != len(want) {
		t.Errorf("SortedDesignNames() = %v", sorted)
	}
	if ds := Designs(); len(ds) != len(want) || ds[0].Name != "baseline" {
		t.Errorf("Designs() = %d descriptors, first %q", len(ds), ds[0].Name)
	}

	if _, ok := LookupDesign("no-such-design"); ok {
		t.Error("LookupDesign resolved an unregistered name")
	}
}

// TestRegistryDescriptorsBuild drives every registered design through
// its own descriptor: build, access, snoop, upgrade, sweep — the
// generic exercise any future design gets for free by being
// registered.
func TestRegistryDescriptorsBuild(t *testing.T) {
	for _, d := range Designs() {
		t.Run(d.Name, func(t *testing.T) {
			l, err := d.New(cfg32K(1.33))
			if err != nil {
				t.Fatal(err)
			}
			if l.Name() == "" {
				t.Error("empty display name")
			}
			if l.FastCycles() > l.SlowCycles() {
				t.Errorf("fast %d above slow %d", l.FastCycles(), l.SlowCycles())
			}

			l.Fill(0x1000, addr.Page4K, true, false)
			if r := l.Access(0x1000, 0x1000, addr.Page4K, false); !r.Hit {
				t.Errorf("filled line missed: %+v", r)
			}
			l.UpgradeToModified(0x1000)
			if p := l.Snoop(0x1000, SnoopPeek); !p.Hit {
				t.Errorf("snoop missed a resident line: %+v", p)
			}

			var sweep cache.FrameSweep
			sweep.Reset([]addr.PAddr{0x1000})
			if v := l.EvictFrames(&sweep); len(v) != 1 || v[0].PA != 0x1000 {
				t.Errorf("EvictFrames swept %+v, want the one filled line", v)
			}
			if r := l.Access(0x1000, 0x1000, addr.Page4K, false); r.Hit {
				t.Error("line survived EvictFrames")
			}

			if d.AreaBytes != nil && d.AreaBytes(cfg32K(1.33)) == 0 {
				t.Error("declared AreaBytes hook reports zero extra SRAM")
			}
		})
	}
}

// TestRegisterRejections: registration is init-time programmer error
// territory — empty names, duplicates, and builderless designs panic.
func TestRegisterRejections(t *testing.T) {
	mustPanic := func(name string, d Design) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	mustPanic("empty name", Design{})
	mustPanic("duplicate", Design{Name: "seesaw", New: func(Config) (L1Cache, error) { return nil, nil }})
	mustPanic("no builder", Design{Name: "builderless"})
}

// TestPartitionRules covers the shared geometry validator's typed
// rejections, and TestConfigErrorRendering the error surface evolve's
// mutators switch on.
func TestPartitionRules(t *testing.T) {
	base := cfg32K(1.33)
	if err := partitionRules(base); err != nil {
		t.Errorf("Partitions=0 (design default) rejected: %v", err)
	}
	cases := []struct {
		parts, ways int
		rule        Rule
	}{
		{3, 8, RulePartitionsNotPow2},
		{16, 8, RulePartitionsExceedWays},
		{8, 12, RuleWaysNotDivisible},
	}
	for _, c := range cases {
		cfg := base
		cfg.Partitions, cfg.Ways = c.parts, c.ways
		err := partitionRules(cfg)
		if err == nil || err.Rule != c.rule {
			t.Errorf("partitions=%d ways=%d: got %v, want rule %s", c.parts, c.ways, err, c.rule)
		}
	}
}

func TestConfigErrorRendering(t *testing.T) {
	err := configErr("Partitions", 3, RulePartitionsNotPow2, "must be a power of two")
	for _, part := range []string{"Partitions", "3", string(RulePartitionsNotPow2), "power of two"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q is missing %q", err.Error(), part)
		}
	}
}

func TestInsertionPolicyString(t *testing.T) {
	if FourWay.String() != "4way" || FourEightWay.String() != "4way-8way" {
		t.Errorf("policy strings = %q, %q", FourWay.String(), FourEightWay.String())
	}
}
