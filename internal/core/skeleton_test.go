package core

import (
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
)

// TestOnePartitionIsWholeSet pins why the unpartitioned designs need no
// branch in the skeleton: with one partition the partition probe, the
// partition-scoped fill and the partition-filtered snoop are the
// whole-set ones, with the same latencies, victims, ways probed and
// energies, under either insertion policy and either replacement
// policy.
func TestOnePartitionIsWholeSet(t *testing.T) {
	designs := []struct {
		name   string
		serial int
		build  func(Config) (*skeleton, error)
	}{
		{"baseline", 0, func(c Config) (*skeleton, error) {
			b, err := NewBaselineVIPT(c)
			if err != nil {
				return nil, err
			}
			return &b.skeleton, nil
		}},
		{"pipt", 2, func(c Config) (*skeleton, error) {
			p, err := NewPIPT(c)
			if err != nil {
				return nil, err
			}
			return &p.skeleton, nil
		}},
	}
	for _, d := range designs {
		for _, repl := range []cache.Replacement{cache.LRU, cache.SRRIP} {
			t.Run(d.name+"/"+repl.String(), func(t *testing.T) {
				cfg := Config{SizeBytes: 32 << 10, Ways: 8, FreqGHz: 2.8, SerialTLBCycles: d.serial, Replacement: repl}
				mk := func(p InsertionPolicy) *skeleton {
					c := cfg
					c.Policy = p
					k, err := d.build(c)
					if err != nil {
						t.Fatal(err)
					}
					return k
				}
				fw, mixed := mk(FourWay), mk(FourEightWay)
				g := fw.Geometry()
				if g.Partitions != 1 || g.WaysPerPartition() != g.Ways {
					t.Fatalf("geometry %v, want one partition of every way", g)
				}
				if fw.t.ePart != fw.t.eFull || fw.t.eVictimPart != fw.t.eVictimFull {
					t.Errorf("ePart %v / eFull %v, eVictimPart %v / eVictimFull %v: want equal",
						fw.t.ePart, fw.t.eFull, fw.t.eVictimPart, fw.t.eVictimFull)
				}
				if fw.FastCycles() != fw.SlowCycles() || fw.t.fastCycles != fw.t.slowCycles {
					t.Errorf("fast %d / slow %d cycles, want equal", fw.FastCycles(), fw.SlowCycles())
				}
				if want := d.serial + fw.t.slowCycles; fw.SlowCycles() != want {
					t.Errorf("slow cycles %d, want %d (serial TLB %d)", fw.SlowCycles(), want, d.serial)
				}
				var part, set AccessResult
				fw.lookupPartition(&part, 0, 0, 1)
				fw.lookupSet(&set, 0, 1)
				if part.Cycles != set.Cycles || part.WaysProbed != set.WaysProbed || part.EnergyNJ != set.EnergyNJ {
					t.Errorf("partition lookup %+v differs from whole-set lookup %+v", part, set)
				}

				// Twelve base-page lines into one set: the last four
				// fills evict, some of them dirty. 4way fills partition
				// 0; 4way-8way fills the whole set.
				for i := uint64(0); i < 12; i++ {
					pa := addr.PAddr(0x40 | i<<12)
					a := fw.Fill(pa, addr.Page4K, i%3 == 0, false)
					b := mixed.Fill(pa, addr.Page4K, i%3 == 0, false)
					if a != b {
						t.Fatalf("fill %d: 4way %+v, 4way-8way %+v", i, a, b)
					}
					if i >= 8 && !a.Victim.Valid {
						t.Fatalf("fill %d into a full set evicted nothing", i)
					}
				}
				for i := uint64(0); i < 12; i++ {
					pa := addr.PAddr(0x40 | i<<12)
					for _, op := range []SnoopOp{SnoopPeek, SnoopDowngrade, SnoopInvalidate} {
						a, b := fw.Snoop(pa, op), mixed.Snoop(pa, op)
						if a != b {
							t.Fatalf("snoop %#x op %d: 4way %+v, 4way-8way %+v", uint64(pa), op, a, b)
						}
						if a.WaysProbed != g.Ways {
							t.Fatalf("snoop probed %d ways, want %d", a.WaysProbed, g.Ways)
						}
					}
				}
			})
		}
	}
}
