package runner

import (
	"context"
	"errors"
	"sync"

	"seesaw/internal/machine"
	"seesaw/internal/sim"
)

// SnapshotStore is the slice of the disk store the ladder needs: rungs
// keyed by (warmup prefix hash, reference depth). *store.Store
// implements it; tests substitute in-memory fakes.
type SnapshotStore interface {
	// DeepestSnapshot returns the deepest stored rung for prefix at or
	// below maxRefs, or ok=false when none is usable.
	DeepestSnapshot(prefix string, maxRefs int) (data []byte, refs int, ok bool)
	// PutSnapshot persists one rung.
	PutSnapshot(prefix string, refs int, data []byte) error
	// DropSnapshot removes a rung that failed to decode or resume, so it
	// is recomputed instead of tripping every future ladder climb.
	DropSnapshot(prefix string, refs int)
}

// LadderCounters is a snapshot of one ladder's outcomes.
type LadderCounters struct {
	// Warmups is the number of distinct warmup prefixes this ladder
	// warmed (from a rung or from cold).
	Warmups uint64
	// RungHits is how many of those warmups resumed from a stored rung.
	RungHits uint64
	// ResumedRefs is the total warmup references skipped by resuming —
	// the ladder's whole payoff, measured in simulated work not redone.
	ResumedRefs uint64
	// RunRefs is the total warmup references actually executed.
	RunRefs uint64
	// RungPuts is how many rungs this ladder persisted.
	RungPuts uint64
	// RungDrops is how many stored rungs failed to decode and were
	// dropped for recomputation.
	RungDrops uint64
}

// LadderStats accumulates a ladder's counters; safe for concurrent use.
type LadderStats struct {
	mu sync.Mutex
	c  LadderCounters
}

// Counters returns a snapshot of the counters.
func (l *LadderStats) Counters() LadderCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.c
}

func (l *LadderStats) count(f func(*LadderCounters)) {
	l.mu.Lock()
	f(&l.c)
	l.mu.Unlock()
}

// warmEntry is one shared warm master: a snapshot of the OS half of a
// machine warmed exactly once per warmup signature, forked by every
// cell that matches. The warmed machine itself, with its caches and
// LLC, is dropped once snapshotted.
type warmEntry struct {
	once sync.Once
	snap *machine.Snapshot
	err  error
	// mu serializes Fork calls on the shared master. Forking only reads
	// the snapshot, but the serialization is cheap next to a measured
	// run and removes any aliasing doubt.
	mu sync.Mutex
}

// LadderRun returns a shared-warmup cell function that additionally
// climbs the snapshot ladder: before warming a signature from cold, it
// resolves the deepest stored rung for the config's warmup prefix and
// resumes from there, and as it warms it persists new rungs — every
// rungEvery references when rungEvery > 0, and always at the warmup
// boundary — so the next process (or the next retry after a crash)
// starts from the deepest point any run ever reached rather than from
// zero. Reports stay byte-identical to cold runs: a rung is a
// bit-exact copy of the machine's OS half (all warmup ever changes),
// and the measured phase always runs fresh via Snapshot.Fork.
//
// With snaps == nil (an untyped nil: a nil *store.Store inside the
// interface is not nil) the ladder degenerates to the in-memory shared
// warmup New uses: each distinct WarmupSignature is warmed once, by
// whichever cell arrives first, and every matching cell forks its
// measured phase from that master. A failed warmup is dropped so a
// later cell can rebuild it; cells already queued behind a warmup that
// failed only because its own cell was canceled retry on a fresh entry
// rather than inherit that cancellation. The masters, snapshots of the
// warmed OS half, live in the returned closure, so many short-lived
// pools can share them. Configs with no warmup phase or a replay trace
// take the ordinary sim.RunContext path.
func LadderRun(snaps SnapshotStore, rungEvery int) (RunFunc, *LadderStats) {
	stats := &LadderStats{}
	var mu sync.Mutex
	warmed := make(map[machine.WarmupSignature]*warmEntry)
	run := func(ctx context.Context, cfg sim.Config) (*sim.Report, error) {
		if cfg.WarmupRefs <= 0 || cfg.Trace != nil {
			return sim.RunContext(ctx, cfg)
		}
		sig := cfg.WarmupSignature()
		var e *warmEntry
		for {
			mu.Lock()
			e = warmed[sig]
			if e == nil {
				e = &warmEntry{}
				warmed[sig] = e
			}
			mu.Unlock()
			e.once.Do(func() {
				e.snap, e.err = climb(ctx, cfg, snaps, rungEvery, stats)
				if e.err != nil {
					mu.Lock()
					delete(warmed, sig)
					mu.Unlock()
				}
			})
			if e.err == nil {
				break
			}
			// The climber's own cancellation or deadline says nothing
			// about this cell: while ctx is live, warm on a fresh entry.
			canceled := errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)
			if !canceled || ctx.Err() != nil {
				return nil, e.err
			}
		}
		e.mu.Lock()
		f, err := e.snap.Fork(cfg)
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if err := f.Measure(ctx); err != nil {
			return nil, err
		}
		return f.Report()
	}
	return run, stats
}

// climb returns a snapshot of a machine warmed to cfg's warmup
// boundary: resume from the deepest stored rung if one decodes, execute
// the remaining warmup in rung-sized chunks, and persist each rung
// passed on the way up.
func climb(ctx context.Context, cfg sim.Config, snaps SnapshotStore, rungEvery int, stats *LadderStats) (*machine.Snapshot, error) {
	var m *machine.Machine
	resumedAt := 0
	if snaps != nil {
		prefix := cfg.PrefixHash()
		if data, refs, ok := snaps.DeepestSnapshot(prefix, cfg.WarmupRefs); ok {
			snap, err := machine.UnmarshalSnapshot(data)
			switch {
			case err != nil:
				// A rung that does not decode (bit rot, tampering) is
				// dropped and recomputed; resuming a sweep must never
				// fail on a bad cache entry.
				snaps.DropSnapshot(prefix, refs)
				stats.count(func(c *LadderCounters) { c.RungDrops++ })
			case snap.Signature() != cfg.WarmupSignature() || snap.Ref() != refs:
				// The rung decodes but is not what its key claims — a
				// prefix-hash collision or a mislabeled entry. Treat as
				// unusable.
				snaps.DropSnapshot(prefix, refs)
				stats.count(func(c *LadderCounters) { c.RungDrops++ })
			default:
				m = snap.Resume()
				resumedAt = refs
				stats.count(func(c *LadderCounters) {
					c.RungHits++
					c.ResumedRefs += uint64(refs)
				})
			}
		}
	}
	if m == nil {
		built, err := machine.Build(cfg)
		if err != nil {
			return nil, err
		}
		m = built
	}
	stats.count(func(c *LadderCounters) { c.Warmups++ })

	persist := func(snap *machine.Snapshot) {
		data, err := snap.MarshalBinary()
		if err != nil {
			return
		}
		if snaps.PutSnapshot(cfg.PrefixHash(), m.Ref(), data) == nil {
			stats.count(func(c *LadderCounters) { c.RungPuts++ })
		}
	}

	if rungEvery > 0 && snaps != nil {
		// Climb rung by rung, persisting each one above the resume
		// point; a cancellation mid-climb still leaves every completed
		// rung on disk for the next attempt.
		for rung := (resumedAt/rungEvery + 1) * rungEvery; rung < cfg.WarmupRefs; rung += rungEvery {
			before := m.Ref()
			if err := m.WarmupTo(ctx, rung); err != nil {
				return nil, err
			}
			stats.count(func(c *LadderCounters) { c.RunRefs += uint64(m.Ref() - before) })
			if snap, err := m.Snapshot(); err == nil {
				persist(snap)
			}
		}
	}
	before := m.Ref()
	if err := m.WarmupTo(ctx, cfg.WarmupRefs); err != nil {
		return nil, err
	}
	stats.count(func(c *LadderCounters) { c.RunRefs += uint64(m.Ref() - before) })
	snap, err := m.Snapshot()
	if err != nil {
		return nil, err
	}
	if snaps != nil && resumedAt < cfg.WarmupRefs {
		persist(snap) // the boundary rung: full-warmup resumes skip straight here
	}
	return snap, nil
}
