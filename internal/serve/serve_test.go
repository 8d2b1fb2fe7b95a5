package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lmi/internal/runner"
	"lmi/internal/sim"
)

// TestClassify pins the retry classification of every failure family
// the serving layer can see.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassOK},
		{"watchdog", &sim.WatchdogError{Kernel: "k", Kind: sim.WatchdogWallClock}, ClassRetryable},
		{"wrapped watchdog", fmt.Errorf("attempt: %w", &sim.WatchdogError{Kernel: "k"}), ClassRetryable},
		{"cycle limit", &sim.CycleLimitError{Kernel: "k", Limit: 10}, ClassRetryable},
		{"ctx deadline", &sim.ContextError{Kernel: "k", Err: context.DeadlineExceeded}, ClassRetryable},
		{"bare deadline", fmt.Errorf("virtual: %w", context.DeadlineExceeded), ClassRetryable},
		{"ctx cancel", &sim.ContextError{Kernel: "k", Err: context.Canceled}, ClassTerminal},
		{"sim panic", &sim.PanicError{Op: "launch", Value: "boom"}, ClassTerminal},
		{"runner panic", &runner.PanicError{Job: "j", Value: "boom"}, ClassTerminal},
		{"silent corruption", fmt.Errorf("%w: detail", ErrSilentCorruption), ClassTerminal},
		{"false positive", fmt.Errorf("%w: detail", ErrFalsePositive), ClassTerminal},
		{"safety violation", fmt.Errorf("%w: detail", ErrSafetyViolation), ClassTerminal},
		{"bad request", fmt.Errorf("%w: detail", ErrBadRequest), ClassTerminal},
		{"engine degraded", fmt.Errorf("%w: detail", ErrEngineDegraded), ClassTerminal},
		{"unknown", errors.New("mystery"), ClassTerminal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestDelayDeterministic: the full retry schedule is a pure function of
// (seed, policy) — same seed same schedule, different seeds different
// jitter — and every delay respects the cap. This is exactly what a
// fake clock would observe, with no goroutines to fake it for.
func TestDelayDeterministic(t *testing.T) {
	rc := RetryConfig{MaxAttempts: 5, BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond}
	var first []time.Duration
	for run := 0; run < 3; run++ {
		var sched []time.Duration
		for a := 0; a < rc.MaxAttempts; a++ {
			sched = append(sched, rc.Delay(42, a))
		}
		if run == 0 {
			first = sched
			continue
		}
		for a := range sched {
			if sched[a] != first[a] {
				t.Fatalf("run %d attempt %d: delay %v != first run's %v", run, a, sched[a], first[a])
			}
		}
	}
	for a, d := range first {
		if d < rc.BackoffBase || d > rc.BackoffMax {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", a, d, rc.BackoffBase, rc.BackoffMax)
		}
	}
	other := rc.Delay(43, 0)
	if other == first[0] {
		t.Errorf("seeds 42 and 43 drew identical jitter %v; jitter is not seeded", other)
	}
}

// TestAttemptSeed: attempt 0 reproduces the request exactly; later
// attempts re-mix so a transient injection does not replay verbatim.
func TestAttemptSeed(t *testing.T) {
	if AttemptSeed(7, 0) != 7 {
		t.Fatalf("attempt 0 must use the request seed verbatim")
	}
	if AttemptSeed(7, 1) == 7 || AttemptSeed(7, 1) == AttemptSeed(7, 2) {
		t.Fatalf("later attempts must draw distinct derived seeds")
	}
	if AttemptSeed(7, 1) != AttemptSeed(7, 1) {
		t.Fatalf("derived seeds must be deterministic")
	}
}

// TestBreakerLifecycle walks one cell through the full state machine on
// a hand-driven clock: closed, open after the failure threshold,
// rejecting during cooldown, half-open probe (one at a time), and
// closed again after enough probe successes.
func TestBreakerLifecycle(t *testing.T) {
	cfg := BreakerConfig{FailThreshold: 3, Cooldown: 10 * time.Millisecond, ProbeSuccesses: 2}
	b := NewBreaker(cfg)
	const key = "chaos/lmi"
	now := time.Duration(0)

	// Closed: failures below the threshold keep it closed; a success
	// resets the streak.
	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(key, now); !ok {
			t.Fatalf("closed cell refused request %d", i)
		}
		b.Record(key, now, 0, false)
	}
	b.Record(key, now, 0, true) // streak reset
	for i := 0; i < 2; i++ {
		b.Record(key, now, 0, false)
	}
	if st := b.Snapshot()[key]; st != BreakerClosed {
		t.Fatalf("state after reset and 2 failures = %s, want closed", st)
	}

	// Third consecutive failure opens the cell.
	b.Record(key, now, 0, false)
	if st := b.Snapshot()[key]; st != BreakerOpen {
		t.Fatalf("state after threshold = %s, want open", st)
	}
	if ok, _ := b.Allow(key, now+cfg.Cooldown-1); ok {
		t.Fatalf("open cell admitted a request inside the cooldown")
	}

	// Cooldown elapsed: exactly one probe at a time.
	now += cfg.Cooldown
	ok, tok := b.Allow(key, now)
	if !ok || tok == 0 {
		t.Fatalf("half-open cell refused the first probe (ok=%v token=%d)", ok, tok)
	}
	if ok, _ := b.Allow(key, now); ok {
		t.Fatalf("half-open cell admitted a second concurrent probe")
	}

	// First probe succeeds; still half-open until ProbeSuccesses.
	b.Record(key, now, tok, true)
	if st := b.Snapshot()[key]; st != BreakerHalfOpen {
		t.Fatalf("state after 1 probe success = %s, want half-open", st)
	}
	ok, tok = b.Allow(key, now)
	if !ok || tok == 0 {
		t.Fatalf("half-open cell refused the second probe (ok=%v token=%d)", ok, tok)
	}
	b.Record(key, now, tok, true)
	if st := b.Snapshot()[key]; st != BreakerClosed {
		t.Fatalf("state after %d probe successes = %s, want closed", cfg.ProbeSuccesses, st)
	}

	// The transition log captured the whole walk in order.
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	trans := b.Transitions()
	if len(trans) != len(want) {
		t.Fatalf("got %d transitions %+v, want %d", len(trans), trans, len(want))
	}
	for i, tr := range trans {
		if tr.To != want[i] || tr.Key != key {
			t.Errorf("transition %d = %s->%s, want ->%s", i, tr.From, tr.To, want[i])
		}
	}
}

// TestBreakerProbeFailureReopens: a failed probe sends the cell back to
// open for a fresh cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	cfg := BreakerConfig{FailThreshold: 1, Cooldown: 5 * time.Millisecond, ProbeSuccesses: 1}
	b := NewBreaker(cfg)
	const key = "chaos/gpushield"
	b.Record(key, 0, 0, false) // opens immediately at threshold 1
	now := cfg.Cooldown
	ok, tok := b.Allow(key, now)
	if !ok {
		t.Fatalf("cooldown elapsed but probe refused")
	}
	b.Record(key, now, tok, false)
	if st := b.Snapshot()[key]; st != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", st)
	}
	if ok, _ := b.Allow(key, now+cfg.Cooldown-1); ok {
		t.Fatalf("re-opened cell admitted a request inside the fresh cooldown")
	}
	if ok, _ := b.Allow(key, now+cfg.Cooldown); !ok {
		t.Fatalf("re-opened cell refused a probe after its fresh cooldown")
	}
}

// TestBreakerLateResultCannotStealProbe pins the half-open race fix:
// with a probe in flight, a late result from a request admitted back
// when the cell was closed (token 0) must not be mistaken for the
// probe's verdict — it must neither transition the cell nor free the
// probe slot for a second concurrent probe.
func TestBreakerLateResultCannotStealProbe(t *testing.T) {
	cfg := BreakerConfig{FailThreshold: 1, Cooldown: 5 * time.Millisecond, ProbeSuccesses: 1}
	b := NewBreaker(cfg)
	const key = "chaos/lmi"
	b.Record(key, 0, 0, false) // open at threshold 1
	now := cfg.Cooldown
	ok, tok := b.Allow(key, now)
	if !ok || tok == 0 {
		t.Fatalf("probe refused after cooldown (ok=%v token=%d)", ok, tok)
	}

	// Late success from the closed epoch lands mid-probe. Before the
	// token fix this cleared the probing flag (or worse, closed the
	// cell), admitting a second probe alongside the first.
	b.Record(key, now, 0, true)
	if st := b.Snapshot()[key]; st != BreakerHalfOpen {
		t.Fatalf("late tokenless success transitioned the cell to %s", st)
	}
	if ok, _ := b.Allow(key, now); ok {
		t.Fatalf("late tokenless result freed the probe slot: second concurrent probe admitted")
	}
	// A stale probe token from a previous half-open epoch is equally inert.
	b.Record(key, now, tok+100, false)
	if st := b.Snapshot()[key]; st != BreakerHalfOpen {
		t.Fatalf("stale probe token transitioned the cell to %s", st)
	}

	// Only the real probe's outcome moves the machine.
	b.Record(key, now, tok, true)
	if st := b.Snapshot()[key]; st != BreakerClosed {
		t.Fatalf("probe success did not close the cell (state %s)", st)
	}
	// Its token is dead after use: replaying it while closed is a no-op.
	b.Record(key, now, tok, false)
	if st := b.Snapshot()[key]; st != BreakerClosed {
		t.Fatalf("replayed dead token transitioned the closed cell to %s", st)
	}
}

// TestBreakerConcurrentProbeSerialized hammers a half-open cell from
// many goroutines mixing Allow calls with late tokenless Records and
// verifies the invariant the token exists to protect: at most one
// outstanding probe at any instant, across many probe generations.
func TestBreakerConcurrentProbeSerialized(t *testing.T) {
	cfg := BreakerConfig{FailThreshold: 1, Cooldown: time.Millisecond, ProbeSuccesses: 1000000}
	b := NewBreaker(cfg)
	const key = "chaos/lmi"
	b.Record(key, 0, 0, false) // open
	now := cfg.Cooldown        // cooldown elapsed: first Allow goes half-open

	var (
		mu          sync.Mutex
		outstanding int
		admitted    int
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				// The race ingredient: late results from the closed epoch
				// arriving between a probe's admission and its Record.
				b.Record(key, now, 0, true)
				ok, tok := b.Allow(key, now)
				if !ok {
					continue
				}
				mu.Lock()
				outstanding++
				admitted++
				if outstanding > 1 {
					mu.Unlock()
					t.Errorf("%d probes outstanding concurrently", outstanding)
					return
				}
				mu.Unlock()
				// Hold the probe in flight across another late tokenless
				// Record and a yield, so other goroutines' Allows land
				// while it is outstanding.
				b.Record(key, now, 0, true)
				runtime.Gosched()
				// Count the probe as finished before its Record frees the
				// slot: once Record returns, the next Allow may admit.
				mu.Lock()
				outstanding--
				mu.Unlock()
				b.Record(key, now, tok, true)
			}
		}()
	}
	wg.Wait()
	if admitted == 0 {
		t.Fatalf("hammer admitted no probes; test exercised nothing")
	}
	if st := b.Snapshot()[key]; st != BreakerHalfOpen {
		t.Fatalf("cell left half-open sequence in state %s", st)
	}
}

// TestBreakerKeysIndependent: cells are per (workload, mechanism); one
// key's meltdown must not reject another's traffic.
func TestBreakerKeysIndependent(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailThreshold: 1, Cooldown: time.Hour, ProbeSuccesses: 1})
	b.Record("chaos/lmi", 0, 0, false)
	if ok, _ := b.Allow("chaos/lmi", 0); ok {
		t.Fatalf("failed key still admitting")
	}
	if ok, _ := b.Allow("chaos/baggybounds", 0); !ok {
		t.Fatalf("healthy key rejected because a sibling opened")
	}
}
