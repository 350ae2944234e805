package machine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"seesaw/internal/addr"
	"seesaw/internal/cache"
	"seesaw/internal/trace"
	"seesaw/internal/workload"
)

// stepToEnd drives a machine to the end of its measured phase one
// Step() at a time: every epoch is one reference long, so records are
// drawn in schedule order.
func stepToEnd(t *testing.T, m *Machine) []byte {
	t.Helper()
	total := m.Config().WarmupRefs + m.Config().Refs
	for m.globalRef < total {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// nutchConfig is a 4-thread workload with the I-cache and text
// superpages modeled on fragmented memory, with promotion and splinter
// cadences firing in both phases: an epoch fill walks five generator
// threads, each drawing data and instruction streams.
func nutchConfig(t *testing.T) Config {
	t.Helper()
	p, err := workload.ByName("nutch")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       42,
		Refs:       30_000,
		WarmupRefs: 15_000,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "ooo",
		MemBytes:   512 << 20,
		ICache:     true,
		TextHuge:   true,

		MemhogFraction:   0.4,
		PromoteScanEvery: 7_000,
		SplinterEvery:    9_000,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// replayConfig replays a recorded redis stream with the I-cache
// modeled: data references come from Config.Trace, instruction fetches
// from the generator. The trace is drawn from a second seed, so it is
// not the stream the machine would generate itself.
func replayConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t, KindSeesaw)
	cfg.WarmupRefs = 0
	cfg.ICache = true
	g := workload.NewGenerator(cfg.Workload, cfg.Seed+1)
	g.BindDefault()
	var schedule []int
	for tid := 0; tid < g.Threads(); tid++ {
		for k := 0; k < 8; k++ {
			schedule = append(schedule, tid)
		}
	}
	schedule = append(schedule, g.SystemTID())
	cfg.Trace = make([]trace.Record, cfg.Refs)
	for i := range cfg.Trace {
		cfg.Trace[i] = g.Next(schedule[i%len(schedule)])
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestBatchedMatchesStepped pins the epoch contract: the Warmup/Measure
// loop, which fills each epoch thread by thread before executing it,
// produces a byte-identical report to driving the same machine one
// Step() at a time. Generation never reads execution state and
// execution stays in schedule order, so epochs must be observationally
// invisible — for a one-thread workload, a multi-threaded one with the
// I-cache, and a trace replay.
func TestBatchedMatchesStepped(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"redis", testConfig(t, KindSeesaw)},
		{"nutch-icache", nutchConfig(t)},
		{"replay-icache", replayConfig(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := reportText(t, mustBuild(t, tc.cfg))
			got := stepToEnd(t, mustBuild(t, tc.cfg))
			if !bytes.Equal(want, got) {
				t.Errorf("batched run differs from stepped run:\nbatched:\n%s\nstepped:\n%s", want, got)
			}
		})
	}
}

// TestStepPastEnd: once the measured phase is complete, Step refuses
// rather than simulate a reference the config never asked for — or, on
// a trace replay, index past the trace — and the cursor stays put.
func TestStepPastEnd(t *testing.T) {
	gen := testConfig(t, KindSeesaw)
	gen.Refs = 500
	replay := replayConfig(t)
	replay.Trace = replay.Trace[:50]
	for name, cfg := range map[string]Config{"generated": gen, "replay": replay} {
		t.Run(name, func(t *testing.T) {
			m := mustBuild(t, cfg)
			end := m.Config().WarmupRefs + m.Config().Refs
			stepToEnd(t, m)
			err := m.Step()
			if err == nil || !strings.Contains(err.Error(), "past the end") {
				t.Errorf("Step at the end of the measured phase returned %v, want a past-the-end error", err)
			}
			if m.Ref() != end {
				t.Errorf("after a refused Step, Ref() = %d, want %d", m.Ref(), end)
			}
		})
	}
}

// mustBuild builds a machine for cfg.
func mustBuild(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allocFreeConfig is a warmed-up redis cell with every hook and every
// cadenced OS activity off (negative disables; zero would take the
// default): promotion scans and splinters legitimately allocate
// page-table state, which is not what the allocation gates check.
func allocFreeConfig(t *testing.T) Config {
	t.Helper()
	p, err := workload.ByName("redis")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workload:   p,
		Seed:       42,
		Refs:       60_000,
		WarmupRefs: 8_192,
		CacheKind:  KindSeesaw,
		L1Size:     32 << 10,
		FreqGHz:    1.33,
		CPUKind:    "ooo",
		MemBytes:   512 << 20,

		ContextSwitchEvery: -1,
		PromoteScanEvery:   -1,
		SplinterEvery:      -1,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestMeasuredStepAllocFree is the allocation regression gate: with
// every hook disabled, a measured-phase reference allocates nothing.
// The machine is warmed past its cold-start fills first so map growth
// and lazily sized scratch buffers have reached steady state.
func TestMeasuredStepAllocFree(t *testing.T) {
	m := mustBuild(t, allocFreeConfig(t))
	if err := m.Warmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Warm the measured-phase state: caches, TLBs, coherence directory.
	for i := 0; i < 20_000; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(5_000, func() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("measured Step allocates %.3f objects/ref with hooks disabled, want 0", avg)
	}
}

// heldFrames returns up to n distinct 4KB frames c holds lines of.
func heldFrames(c *cache.Cache, n int) []addr.PAddr {
	g := c.Geometry()
	var frames []addr.PAddr
	seen := map[addr.PAddr]bool{}
	for set := 0; set < g.Sets(); set++ {
		for w := 0; w < g.Ways && len(frames) < n; w++ {
			f := g.LineFromSetTag(set, c.TagOf(set, w)).PageBase(addr.Page4K)
			if c.StateOf(set, w) != cache.Invalid && !seen[f] {
				seen[f] = true
				frames = append(frames, f)
			}
		}
	}
	return frames
}

// TestMeasuredEpochAllocFree: with every hook disabled, one whole
// 4096-reference measured epoch allocates nothing, whether both halves
// run live, the front end records it for a group's pass, a back end
// replays a finished recording, a second back end replays the same
// recording after the first, the back end retires into three timing
// members, running a live pass, or the epoch ends in a promotion that
// sweeps 512 frames out of every L1.
func TestMeasuredEpochAllocFree(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"generated", "replayed", "replaying", "second-back-end", "three-members", "promotion"} {
		t.Run(name, func(t *testing.T) {
			cfg := allocFreeConfig(t)
			m := mustBuild(t, cfg)
			if err := m.Warmup(ctx); err != nil {
				t.Fatal(err)
			}
			// epoch runs the next measured epoch, starting on an epoch
			// boundary.
			epoch := func() error { return m.run(ctx, m.Ref()+epochRefs) }
			switch name {
			case "replayed":
				// The recording is allocated once, at the boundary.
				w := &recorder{r: newRecording(cfg)}
				if err := m.ensureFront(w); err != nil {
					t.Fatal(err)
				}
				epoch = func() error {
					if _, err := m.frontEpoch(m.fe.at, epochRefs); err != nil {
						return err
					}
					return w.err
				}
			case "replaying", "second-back-end":
				rec, err := m.record(ctx)
				if err != nil {
					t.Fatal(err)
				}
				newBack := func() *backEnd {
					be, err := newGroupBackEnd([]Config{m.cfg}, m.nCores)
					if err != nil {
						t.Fatal(err)
					}
					return be
				}
				if name == "second-back-end" {
					if err := rec.replayAll(newBack(), m.schedule, ctx.Err); err != nil {
						t.Fatal(err)
					}
				}
				be, g, k := newBack(), rec.start, 0
				epoch = func() error {
					k = rec.replay(be, m.schedule, k, g, epochRefs)
					g += epochRefs
					return nil
				}
			case "three-members":
				// The members are built once, at the boundary.
				be, err := newGroupBackEnd(clocks(m.cfg), m.nCores)
				if err != nil || len(be.members) != 3 {
					t.Fatalf("building a three-member back end: %v", err)
				}
				m.be = be
			case "promotion":
				// The frames are those the first epoch leaves lines
				// of in core 0's L1; the workload refills them between
				// sweeps.
				var frames []addr.PAddr
				epoch = func() error {
					if err := m.run(ctx, m.Ref()+epochRefs); err != nil {
						return err
					}
					if frames == nil {
						frames = heldFrames(m.be.l1s[0].Storage(), 512)
					}
					m.be.promote(frames)
					return nil
				}
			}
			// Warm the measured-phase state over five epochs.
			for i := 0; i < 5; i++ {
				if err := epoch(); err != nil {
					t.Fatal(err)
				}
			}
			if avg := testing.AllocsPerRun(5, func() {
				if err := epoch(); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("a %s measured epoch allocates %.1f objects with hooks disabled, want 0", name, avg)
			}
			if name == "promotion" && m.be.l1s[0].Storage().Stats.Sweeps == 0 {
				t.Error("the promotions swept no line")
			}
		})
	}
}
