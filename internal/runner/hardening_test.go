package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"seesaw/internal/faults"
	"seesaw/internal/sim"
)

// TestPanicBecomesCellError: a cell panicking anywhere under the run
// function resolves its future with a typed CellError (stack attached)
// instead of killing the process.
func TestPanicBecomesCellError(t *testing.T) {
	p := NewWithRunContext(2, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		panic("array index out of range [deep in the simulator]")
	})
	_, err := p.Submit(testConfig(t, "redis", 42)).Wait()
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CellError", err, err)
	}
	if ce.Panic == nil || ce.Stack == "" {
		t.Errorf("CellError missing panic value or stack: %+v", ce)
	}
	if ce.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", ce.Attempts)
	}
	if !strings.Contains(ce.Error(), "redis") {
		t.Errorf("error %q does not identify the cell", ce.Error())
	}
	if st := p.Stats(); st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
}

// TestTimeoutBecomesCellError: a hanging cell is abandoned at the
// wall-clock budget and reported as a timeout CellError.
func TestTimeoutBecomesCellError(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := NewWithRunContext(2, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		<-release // hangs until the test ends
		return &sim.Report{}, nil
	}).WithTimeout(20 * time.Millisecond)
	_, err := p.Submit(testConfig(t, "redis", 42)).Wait()
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CellError", err, err)
	}
	if ce.Timeout != 20*time.Millisecond || ce.Panic != nil {
		t.Errorf("CellError = %+v, want pure timeout", ce)
	}
}

// TestRetryRecoversTransientFailure: a cell that panics once and then
// succeeds completes under WithRetries, with the retry counted.
func TestRetryRecoversTransientFailure(t *testing.T) {
	calls := 0
	p := NewWithRunContext(1, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		calls++
		if calls == 1 {
			panic("transient")
		}
		return &sim.Report{Design: "ok"}, nil
	}).WithRetries(2)
	rep, err := p.Submit(testConfig(t, "redis", 42)).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Design != "ok" {
		t.Fatalf("unexpected report %+v", rep)
	}
	st := p.Stats()
	if st.Runs != 2 || st.Retries != 1 || st.Failures != 0 {
		t.Errorf("stats = %+v, want 2 runs / 1 retry / 0 failures", st)
	}
}

// TestRetryHonorsCancellation: a cell that panics after its pool was
// canceled surfaces the cancellation, not a retriable CellError — the
// pool checks its context between attempts and stops retrying.
func TestRetryHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := NewWithRunContext(1, func(context.Context, sim.Config) (*sim.Report, error) {
		calls++
		cancel() // the pool is canceled while this attempt runs
		panic("transient")
	}).WithContext(ctx).WithRetries(3)
	_, err := p.Submit(testConfig(t, "redis", 42)).Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (%T), want context.Canceled", err, err)
	}
	var ce *CellError
	if errors.As(err, &ce) {
		t.Fatalf("err = %v, a CellError despite the canceled pool", err)
	}
	if calls != 1 {
		t.Errorf("run called %d times after cancellation, want 1", calls)
	}
}

// TestDeterministicErrorNotRetried: a plain simulation error (e.g. an
// invalid config) is surfaced immediately — the simulator is
// deterministic, so re-running would only reproduce it.
func TestDeterministicErrorNotRetried(t *testing.T) {
	calls := 0
	simErr := fmt.Errorf("sim: invalid geometry")
	p := NewWithRunContext(1, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		calls++
		return nil, simErr
	}).WithRetries(3)
	_, err := p.Submit(testConfig(t, "redis", 42)).Wait()
	if !errors.Is(err, simErr) {
		t.Fatalf("err = %v, want the simulation error", err)
	}
	if calls != 1 {
		t.Errorf("run called %d times, want 1 (no retries)", calls)
	}
	if st := p.Stats(); st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
}

// TestSweepSurvivesPanickingCell: one poisoned cell among many resolves
// as a CellError while every other cell completes normally — graceful
// degradation instead of a dead process.
func TestSweepSurvivesPanickingCell(t *testing.T) {
	p := NewWithRunContext(4, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		if cfg.Seed == 13 {
			panic("poisoned cell")
		}
		return &sim.Report{Design: fmt.Sprintf("seed%d", cfg.Seed)}, nil
	})
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i] = p.Submit(testConfig(t, "redis", int64(10+i)))
	}
	failed, completed := 0, 0
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			var ce *CellError
			if !errors.As(err, &ce) {
				t.Fatalf("non-typed failure: %v", err)
			}
			failed++
		} else {
			completed++
		}
	}
	if failed != 1 || completed != 7 {
		t.Fatalf("failed=%d completed=%d, want 1/7", failed, completed)
	}
}

// TestRealPanicInsideSimIsContained drives the real sim.Run with a
// config whose geometry panic surfaces only if validation were skipped;
// either way the pool must return an error, never crash.
func TestRealPanicInsideSimIsContained(t *testing.T) {
	cfg := testConfig(t, "redis", 42)
	cfg.L1Size = 256 << 10 // violates the VIPT constraint
	cfg.L1Ways = 4
	if _, err := New(1).Submit(cfg).Wait(); err == nil {
		t.Fatal("impossible geometry produced no error")
	}
}

// TestFaultConfigKeyedByValue: two configs with equal fault schedules at
// different addresses share one execution; different schedules do not.
func TestFaultConfigKeyedByValue(t *testing.T) {
	runs := 0
	p := NewWithRunContext(1, func(_ context.Context, cfg sim.Config) (*sim.Report, error) {
		runs++
		return &sim.Report{}, nil
	})
	a := testConfig(t, "redis", 42)
	a.Faults = &faults.Config{Schedule: "mix", Every: 500}
	b := testConfig(t, "redis", 42)
	b.Faults = &faults.Config{Schedule: "mix", Every: 500} // equal value, new pointer
	c := testConfig(t, "redis", 42)
	c.Faults = &faults.Config{Schedule: "splinter", Every: 500}
	for _, cfg := range []sim.Config{a, b, c} {
		if _, err := p.Submit(cfg).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (a and b dedupe, c is distinct)", runs)
	}
}
