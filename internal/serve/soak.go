package serve

import (
	"context"
	"fmt"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/runner"
)

// Virtual service-time model: an attempt occupies a virtual server for
// a fixed dispatch overhead, plus the simulated kernel length, plus a
// seeded scheduling-noise term. The noise is what makes tight
// per-request deadlines miss on one attempt and clear on the retry
// (whose derived seed redraws it).
const (
	virtBase        = 50 * time.Microsecond
	virtCyclePeriod = 25 * time.Nanosecond
	virtNoiseSpan   = 50 * time.Microsecond
	virtNoiseSalt   = 0xD1CE
)

// virtDuration is the virtual service time of one attempt.
func virtDuration(cycles uint64, seed uint64) time.Duration {
	noise := time.Duration(chaos.MixSeed(seed, virtNoiseSalt) % uint64(virtNoiseSpan))
	return virtBase + time.Duration(cycles)*virtCyclePeriod + noise
}

// AttemptRes is one precomputed execution attempt: its outcome and how
// long it holds a virtual server.
type AttemptRes struct {
	Out Outcome
	Dur time.Duration
}

// PrecomputeAttempts executes attempt waves on the worker pool. Wave 0
// is every request's first attempt; wave k holds only the requests
// whose attempt k-1 failed retryably — a deterministic superset of the
// attempts a virtual-time replay will consume, regardless of how the
// replay's queue and breaker dynamics play out. Each attempt is a pure
// function of (request, derived seed), so worker count cannot change a
// single byte of it. The fleet soak replays over this table.
func PrecomputeAttempts(ctx context.Context, workers int, retry RetryConfig, exec *Executor, reqs []Request) ([][]AttemptRes, error) {
	attempts := make([][]AttemptRes, len(reqs))
	pending := make([]int, len(reqs))
	for i := range pending {
		pending[i] = i
	}
	for a := 0; a < retry.MaxAttempts && len(pending) > 0; a++ {
		wave := pending
		res := make([]AttemptRes, len(wave))
		errs := runner.ForEach(ctx, len(wave), workers, func(i int) error {
			req := reqs[wave[i]]
			out := exec.Execute(ctx, req, AttemptSeed(req.Seed, a))
			res[i] = BenchAttempt(req, a, out)
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []int
		for i, r := range wave {
			attempts[r] = append(attempts[r], res[i])
			if Classify(res[i].Out.Err) == ClassRetryable {
				next = append(next, r)
			}
		}
		pending = next
	}
	return attempts, nil
}

// BenchAttempt derives one attempt's AttemptRes from its executed
// outcome: the virtual service time (a pure function of the request
// seed, attempt number, and simulated cycles) plus virtual-deadline
// truncation — an attempt that would outlive its deadline is killed at
// the deadline, before any terminal verdict could have been produced.
// The fleet soak uses it to derive attempts for bundle-backed bench
// requests, whose outcomes are precomputed once per (cell, bundle
// version) rather than per request.
func BenchAttempt(req Request, attempt int, out Outcome) AttemptRes {
	seed := AttemptSeed(req.Seed, attempt)
	dur := virtDuration(out.Cycles, seed)
	if req.Deadline > 0 && dur > req.Deadline {
		out = Outcome{
			Err: fmt.Errorf("serve: attempt %d exceeded virtual deadline %v: %w",
				attempt, req.Deadline, context.DeadlineExceeded),
			Detail: fmt.Sprintf("virtual deadline %v exceeded (needed %v)", req.Deadline, dur),
		}
		dur = req.Deadline
	}
	return AttemptRes{Out: out, Dur: dur}
}
