package machine

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// A Group is a set of cells one measured-phase pass can answer: cells
// with equal GroupKey run the same front end (frontend.go). The first
// member to reach its warmup boundary in Measure, with the group on the
// context (see WithGroup), runs the pass for all of them:
//
//   - When the members differ only in the timing-only fields (FreqGHz,
//     SerialTLBCycles, SchedulerAlwaysFast, SchedulerAlwaysSlow and
//     SpecFastThreshold), they share one back end: the pass measures
//     live, retiring each reference into one timing member per cell.
//   - Otherwise the pass records its front end over the whole measured
//     phase (recording.go), then replays the finished recording into one
//     back end per back-end key in turn, each back end carrying one
//     timing member per cell of its key. Back ends are handed to idle
//     workers through the lend callback given to NewGroup, one at a
//     time, so memory stays at one recording plus one back end per
//     goroutine replaying.
//
// The pass builds every member's report at its own clock, its own
// included, and drops each back end as soon as its reports are built.
// Every other member takes its report in Measure and constructs nothing.
// A member whose report never arrives measures live alone: the pass
// failed, panicked, timed out or was canceled before its back end was
// replayed, or was still running. A failure or panic replaying another
// cell's back end drops only that back end, and its members meet the
// failure again, if it is theirs, measuring live; a failure of the
// pass's own back end stops the pass, and the machine that ran it is
// spent, its front end past its cursor. A member whose GroupKey differs
// from the pass's fails with a *GroupMismatchError; a trace replay has
// no key and always measures live. A group is safe for concurrent use.
type Group struct {
	// lend runs a function on an idle worker and reports whether it did;
	// nil never lends.
	lend func(run func()) bool

	mu sync.Mutex
	// cfgs are the members' configs with defaults applied, and keys
	// their canonical keys.
	cfgs    []Config
	keys    []string
	claimed bool
	// done holds each other member's outcome once the pass built it, by
	// canonical key, until the member takes it.
	done     map[string]groupResult
	passes   int
	answered int
}

// groupResult is one member's outcome of a pass.
type groupResult struct {
	rep *Report
	err error
}

// NewGroup returns a group over the given cells. lend runs a function
// on an idle worker, reporting whether it did; the pass hands it back
// ends to replay while it replays others. A nil lend replays every back
// end on the pass's own goroutine. A cell Validate rejects is left out:
// its Build fails, so it never measures.
func NewGroup(lend func(run func()) bool, cfgs ...Config) *Group {
	g := &Group{lend: lend, done: make(map[string]groupResult)}
	for _, c := range cfgs {
		if c.Validate() != nil {
			continue
		}
		d := c.WithDefaults()
		k, _ := d.CanonicalKey()
		g.cfgs, g.keys = append(g.cfgs, d), append(g.keys, k)
	}
	return g
}

// groupCtxKey keys a Group in a context.
type groupCtxKey struct{}

// WithGroup returns ctx carrying g: a machine whose Measure starts at its
// warmup boundary under that context joins g.
func WithGroup(ctx context.Context, g *Group) context.Context {
	return context.WithValue(ctx, groupCtxKey{}, g)
}

// Claimed reports whether a member has claimed the group's pass. Once
// one has, every other member either takes its report at once or
// measures live alone.
func (g *Group) Claimed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.claimed
}

// Counts reports how many passes the group ran to the end (0 or 1) and
// how many members took a report from the pass instead of measuring,
// the member that ran it excluded.
func (g *Group) Counts() (passes, answered int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.passes, g.answered
}

// GroupKey identifies the cells one pass can answer. For a measured
// phase short enough to record (maxRecordingBytes: about 987k
// references, 508k with the I-cache) it is the front end's key: the
// config's canonical key with defaults applied and every field only the
// back end reads cleared (the L1 design and geometry, the TFT, the
// coherence mode, prefetch, energy prices and the timing-only fields).
// For a longer phase, and for a config with metrics or the invariant
// checker, whose hooks watch a live machine, it is the timing key, the
// canonical key with only the timing-only fields cleared: the cell
// groups only with the siblings one back end serves, and its pass
// measures live and never records. The zero key is no config's.
type GroupKey struct{ key string }

// GroupKey returns the config's group key. ok is false for a trace
// replay, which has no canonical key and never shares a pass.
func (c Config) GroupKey() (key GroupKey, ok bool) {
	return groupKey(c.WithDefaults())
}

// groupKey is GroupKey of a config with defaults already applied
// (WithDefaults is not idempotent for an explicit zero Refs).
func groupKey(d Config) (GroupKey, bool) {
	if d.Trace != nil {
		return GroupKey{}, false
	}
	if d.Metrics == nil && !d.CheckInvariants && recordingBytes(d) <= maxRecordingBytes {
		var z Config
		d.CacheKind, d.L1Size, d.L1Ways, d.Partitions = z.CacheKind, z.L1Size, z.L1Ways, z.Partitions
		d.Policy, d.WayPredict, d.Replacement, d.TFT = z.Policy, z.WayPredict, z.Replacement, z.TFT
		d.CoherenceMode, d.Prefetch, d.Prices = z.CoherenceMode, z.Prefetch, z.Prices
	}
	k, _ := timingKey(d)
	return GroupKey{key: k}, true
}

// GroupMismatchError is the failure of a group member whose GroupKey
// differs from the key of the member that ran the pass.
type GroupMismatchError struct {
	// Member and Pass are the two configs' canonical keys.
	Member, Pass string
}

// Error implements error.
func (e *GroupMismatchError) Error() string {
	return "sim: group member runs another front end than the pass: member " + e.Member + ", pass " + e.Pass
}

// join is the arrival of a member with config d (defaults applied) at
// its warmup boundary. A member whose outcome is waiting takes it. The
// first member of the group to arrive with a key claims the pass and
// gets its back ends: one list of configs per back-end key, its own
// first and d first in it; a member whose key differs from d's is left
// a *GroupMismatchError. Anyone else gets nothing and measures live.
func (g *Group) join(d Config) (rep *Report, backs [][]Config, err error) {
	gk, keyed := groupKey(d)
	if !keyed {
		return nil, nil, nil
	}
	k, _ := d.CanonicalKey()
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.done[k]; ok {
		delete(g.done, k)
		if r.err == nil {
			g.answered++
		}
		return r.rep, nil, r.err
	}
	if g.claimed || !slices.Contains(g.keys, k) {
		return nil, nil, nil
	}
	g.claimed = true
	tk, _ := timingKey(d)
	backs = [][]Config{{d}}
	back := map[string]int{tk: 0}
	seen := map[string]bool{k: true}
	for i, c := range g.cfgs {
		ck := g.keys[i]
		if seen[ck] {
			continue
		}
		seen[ck] = true
		ckey, ok := groupKey(c)
		if !ok {
			continue
		}
		if ckey != gk {
			g.done[ck] = groupResult{err: &GroupMismatchError{Member: ck, Pass: k}}
			continue
		}
		ctk, _ := timingKey(c)
		b, ok := back[ctk]
		if !ok {
			b = len(backs)
			back[ctk] = b
			backs = append(backs, nil)
		}
		backs[b] = append(backs[b], c)
	}
	return nil, backs, nil
}

// answer builds the report of every member of be, a back end of the pass
// of the member with canonical key own, and leaves each in the group but
// own's, which it returns.
func (g *Group) answer(be *backEnd, fs frontStats, own string) (mine *Report) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range be.members {
		r := be.report(&be.members[i], fs)
		if k, _ := be.members[i].cfg.CanonicalKey(); k != own {
			g.done[k] = groupResult{rep: r}
		} else {
			mine = r
		}
	}
	return mine
}

// runPass runs g's pass from this machine, which claimed it at its warmup
// boundary; backs holds its back ends (Group.join). It leaves every
// other member's report in g and takes its own.
func (m *Machine) runPass(ctx context.Context, g *Group, backs [][]Config) error {
	own, _ := m.cfg.CanonicalKey()
	if len(backs) == 1 {
		// The machine's own back end, its metrics and checker wired as
		// when it measures alone, retires into every member.
		if err := m.ensureBack(); err != nil {
			return err
		}
		m.be.addMembers(backs[0][1:])
		if err := m.run(ctx, m.cfg.WarmupRefs+m.cfg.Refs); err != nil {
			return err
		}
		m.handed = g.answer(m.be, m.fe.stats(), own)
	} else {
		rec, err := m.record(ctx)
		if err != nil {
			return err
		}
		m.fe = nil
		p := &pass{g: g, ctx: ctx, rec: rec, schedule: m.schedule, nCores: m.nCores, backs: backs, own: own, next: 1}
		if m.handed, err = p.run(); err != nil {
			return err
		}
	}
	m.fe, m.be, m.live = nil, nil, false
	m.globalRef = m.cfg.WarmupRefs + m.cfg.Refs
	g.mu.Lock()
	g.passes++
	g.mu.Unlock()
	return nil
}

// newGroupBackEnd builds the back end of cfgs, configs that share one
// back-end key, for nCores cores: cfgs[0]'s back end, retiring into one
// timing member per config.
func newGroupBackEnd(cfgs []Config, nCores int) (*backEnd, error) {
	be, err := newBackEnd(cfgs[0], nCores, nil)
	if err != nil {
		return nil, err
	}
	be.addMembers(cfgs[1:])
	return be, nil
}

// addMembers gives be one more timing member per config of cfgs, timing
// siblings of its own config. A config whose member cannot be built is
// left out; its cell fails the same way when it measures live.
func (be *backEnd) addMembers(cfgs []Config) {
	for _, c := range cfgs {
		if mb, err := memberFor(c, be.nCores); err == nil {
			be.members = append(be.members, mb)
		}
	}
}

// errPassStopped is what a replay's poll returns once the pass's own
// back end has failed.
var errPassStopped = errors.New("sim: the group's pass stopped")

// A pass replays one finished recording into each of its back ends. The
// goroutine that ran the front end replays its own back end, backs[0],
// first, then the others until none remain, and so does each worker lent
// to the pass. Every replay polls the pass before each epoch: the poll
// offers the back ends not yet taken to an idle worker through the
// group's lend callback, so a worker that falls idle joins within an
// epoch, and once the pass stops, its context ended or its own back end
// failed, every replay stops at its next epoch. A failure or panic
// replaying another back end drops only that back end.
type pass struct {
	g        *Group
	ctx      context.Context
	rec      *recording
	schedule []int
	nCores   int
	backs    [][]Config
	// own is the canonical key of the member that runs the pass, whose
	// back end is backs[0].
	own string

	mu   sync.Mutex
	next int // the next back end to replay
	// err, once set, stops the pass: its context's error, or
	// errPassStopped after its own back end failed.
	err  error
	lent sync.WaitGroup
}

// run replays every back end and returns the report of the member that
// runs the pass, or the failure of that member's own back end. It
// returns only once every lent worker has stopped, even when it panics.
func (p *pass) run() (*Report, error) {
	defer p.lent.Wait()
	defer p.stop(errPassStopped) // after a failure or panic, stop the lent workers
	be, err := p.replay(0)
	if err != nil {
		return nil, err
	}
	mine := p.g.answer(be, p.rec.stats, p.own)
	p.work()
	p.lent.Wait()
	return mine, nil
}

// replay builds back end i and replays the recording into it.
func (p *pass) replay(i int) (*backEnd, error) {
	be, err := newGroupBackEnd(p.backs[i], p.nCores)
	if err != nil {
		return nil, err
	}
	return be, p.rec.replayAll(be, p.schedule, p.poll)
}

// work replays the other back ends until none remain or the pass stops.
func (p *pass) work() {
	for i := p.take(); i >= 0; i = p.take() {
		p.replayOther(i)
	}
}

// replayOther replays back end i, not the pass's own, and leaves its
// members' reports in the group. A failure or a panic drops the back end
// instead: its members measure live, where a failure of their own recurs
// under their own name and stack.
func (p *pass) replayOther(i int) {
	defer func() { recover() }()
	if be, err := p.replay(i); err == nil {
		p.g.answer(be, p.rec.stats, p.own)
	}
}

// lentWork is work on a lent worker.
func (p *pass) lentWork() {
	defer p.lent.Done()
	p.work()
}

// take returns the next back end to replay, or -1 when none remain or
// the pass has stopped.
func (p *pass) take() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil || p.next == len(p.backs) {
		return -1
	}
	p.next++
	return p.next - 1
}

// stop stops the pass for err, unless it stopped already.
func (p *pass) stop(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
	}
}

// poll is the check each replay makes before an epoch: it fails once the
// pass has stopped or its context ends, which stops it, and otherwise
// lends the back ends not yet taken, if any, to an idle worker.
func (p *pass) poll() error {
	p.mu.Lock()
	err, more := p.err, p.next < len(p.backs)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if more && p.g.lend != nil {
		p.lent.Add(1)
		if !p.g.lend(p.lentWork) {
			p.lent.Done()
		}
	}
	if err = p.ctx.Err(); err != nil {
		p.stop(err)
	}
	return err
}
