package cluster

import (
	"context"
	"fmt"
	"time"

	"seesaw/internal/sim"
)

// Lease failure reasons. A lease's reason is set exactly once, under the
// coordinator mutex, by whichever party gives up on it first; the
// dispatch goroutine reads it when the canceled HTTP stream unwinds.
const (
	reasonExpired = "lease expired" // heartbeats stopped (crashed or wedged worker)
	reasonEvicted = "worker evicted"
	reasonRemote  = "remote error" // transport or worker-reported failure
)

// lease covers one dispatched cell on one worker. Its context is a child
// of the job's, so job cancellation unwinds the dispatch; expiry and
// eviction cancel it with a reason. All requeue decisions happen in
// settle, on the single dispatch goroutine that owns the lease — the
// scheduler only ever cancels, which is what makes "requeue exactly once
// per lease" structural rather than a convention.
type lease struct {
	id       string
	u        *unit
	w        *worker
	deadline time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	reason   string
}

// schedulerLoop drives dispatching: it wakes on submissions, settlements,
// probe results, and a safety tick that also sweeps expired leases.
func (c *Coordinator) schedulerLoop() {
	defer c.bg.Done()
	every := c.cfg.LeaseTTL / 4
	if every > 250*time.Millisecond {
		every = 250 * time.Millisecond
	}
	if every < time.Millisecond {
		every = time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.rootCtx.Done():
			return
		case <-c.wake:
		case <-tick.C:
		}
		c.step()
	}
}

// step is one scheduling pass: expire overdue leases, then walk the
// pending queue in submission order resolving each cell the cheapest way
// available — store hit, duplicate-lease piggyback, or dispatch to a
// routed worker. Cells it cannot place (backoff pending, no worker with
// a free slot) stay queued in order.
func (c *Coordinator) step() {
	now := time.Now()
	var dispatches []*lease
	c.mu.Lock()
	for _, l := range c.leases {
		if l.reason == "" && now.After(l.deadline) {
			l.reason = reasonExpired
			c.counters.LeasesExpired++
			c.cfg.Logger.Printf("cluster: lease %s expired on %s (cell %s[%d])", l.id, l.w.addr, l.u.job.ID, l.u.index)
			l.cancel()
		}
	}
	var rest []*unit
	for _, u := range c.queue {
		if u.state != unitPending {
			continue // settled while queued (job cancel)
		}
		if err := u.job.Context().Err(); err != nil {
			c.counters.CellsCanceled++
			u.job.completeUnit(u, nil, err)
			continue
		}
		if now.Before(u.readyAt) {
			rest = append(rest, u)
			continue
		}
		if u.key != "" {
			// Read-through: previously computed cells — this sweep, another
			// job, a worker's own store put, a coordinator life before a
			// restart — resolve without dispatching.
			if c.cfg.Store != nil {
				if rep, ok := c.cfg.Store.Get(u.cfg); ok {
					u.job.storeHits.Add(1)
					c.counters.StoreHits++
					c.counters.CellsDone++
					u.job.completeUnit(u, rep, nil)
					continue
				}
			}
			if _, inflight := c.dupWait[u.key]; inflight {
				c.dupWait[u.key] = append(c.dupWait[u.key], u)
				u.state = unitWaiting
				u.job.dupHits.Add(1)
				c.counters.DupHits++
				continue
			}
		}
		w := c.route.pick(c, u)
		if w == nil {
			rest = append(rest, u)
			continue
		}
		dispatches = append(dispatches, c.grantLocked(u, w, now))
	}
	c.queue = rest
	c.mu.Unlock()
	for _, l := range dispatches {
		go c.dispatch(l)
	}
}

// grantLocked creates the lease for u on w. Callers hold the mutex.
func (c *Coordinator) grantLocked(u *unit, w *worker, now time.Time) *lease {
	c.leaseSeq++
	ctx, cancel := context.WithCancel(u.job.Context())
	l := &lease{
		id:       fmt.Sprintf("l%06d", c.leaseSeq),
		u:        u,
		w:        w,
		deadline: now.Add(c.cfg.LeaseTTL),
		ctx:      ctx,
		cancel:   cancel,
	}
	u.state = unitInflight
	u.attempts++
	w.active++
	c.leases[l.id] = l
	c.counters.LeasesGranted++
	if u.key != "" {
		c.dupWait[u.key] = nil // mark in-flight; duplicates park here
	}
	return l
}

// dispatch runs one lease to completion on its goroutine: stream the
// cell from the worker, renewing the lease on every heartbeat, then
// settle whatever happened. It always reaches settle — a canceled lease
// context unwinds the HTTP stream.
func (c *Coordinator) dispatch(l *lease) {
	hb := c.cfg.LeaseTTL / 3
	if hb < time.Millisecond {
		hb = time.Millisecond
	}
	rep, err := l.w.client.runCell(l.ctx, l.u.spec, l.id, hb, func() {
		c.mu.Lock()
		if _, live := c.leases[l.id]; live && l.reason == "" {
			l.deadline = time.Now().Add(c.cfg.LeaseTTL)
			c.counters.LeasesRenewed++
		}
		c.mu.Unlock()
	})
	c.settle(l, rep, err)
	l.cancel()
	c.wakeUp()
}

// settle resolves one finished lease: success completes the cell and
// releases any duplicate waiters with the same report; failure either
// requeues the cell with backoff (once — this is the only requeue site,
// and this goroutine owns the lease) or, with the attempt budget
// exhausted, fails it. Waiters always requeue on failure: their own
// budgets are untouched.
func (c *Coordinator) settle(l *lease, rep *sim.Report, err error) {
	u := l.u
	now := time.Now()
	c.mu.Lock()
	delete(c.leases, l.id)
	l.w.active--
	waiters := c.dupWait[u.key]
	if u.key != "" {
		delete(c.dupWait, u.key)
	}
	if err == nil {
		u.job.runs.Add(1)
		c.counters.RemoteRuns++
		c.counters.CellsDone++
		u.job.completeUnit(u, rep, nil)
		for _, du := range waiters {
			du.state = unitPending
			if err := du.job.Context().Err(); err != nil {
				c.counters.CellsCanceled++
				du.job.completeUnit(du, nil, err)
				continue
			}
			c.counters.CellsDone++
			du.job.completeUnit(du, rep, nil)
		}
		c.mu.Unlock()
		// The worker's pool already put the report; this covers workers
		// running storeless.
		if c.cfg.Store != nil && u.key != "" {
			if perr := c.cfg.Store.Put(u.cfg, rep); perr != nil {
				c.cfg.Logger.Printf("cluster: store put: %v", perr)
			}
		}
		return
	}
	defer c.mu.Unlock()
	// Requeue duplicate waiters regardless of what happens to u; the next
	// scheduling pass re-resolves them (store, new dup lease, dispatch).
	for _, du := range waiters {
		du.state = unitPending
		du.readyAt = now
		c.queue = append(c.queue, du)
	}
	if err := u.job.Context().Err(); err != nil {
		c.counters.CellsCanceled++
		u.job.completeUnit(u, nil, err)
		return
	}
	reason := l.reason
	if reason == "" {
		reason = reasonRemote
		c.counters.DispatchErrors++
	}
	if u.attempts >= c.cfg.MaxAttempts {
		c.counters.BudgetExhausted++
		c.counters.CellsFailed++
		u.job.completeUnit(u, nil, fmt.Errorf("cell failed after %d dispatch attempts (last on %s: %s: %v)", u.attempts, l.w.addr, reason, err))
		return
	}
	u.state = unitPending
	u.job.retries.Add(1)
	u.readyAt = now.Add(c.backoffDelay(u.attempts))
	c.queue = append(c.queue, u)
	c.counters.Requeues++
	u.job.Requeue(u.index, fmt.Sprintf("attempt %d on %s: %s: %v", u.attempts, l.w.addr, reason, err))
	c.cfg.Logger.Printf("cluster: requeued %s[%d] after attempt %d on %s (%s: %v)", u.job.ID, u.index, u.attempts, l.w.addr, reason, err)
}
