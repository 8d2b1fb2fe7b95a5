package serve

import (
	"context"
	"fmt"
	"time"
)

// Processor is the shard-local request state machine: validation,
// circuit-breaker admission, and up to MaxAttempts executions with
// classified retries and deterministic seeded backoff. It owns no
// queue and no goroutines — each live fleet shard owns one and feeds it
// from its worker pool, so the executor, breaker, and retry policy stay
// strictly shard-local.
type Processor struct {
	// Exec runs individual attempts (its compiled victims and program
	// cache are this shard's warm state).
	Exec *Executor
	// Brk is the shard's per-(workload, mechanism) circuit breaker.
	Brk *Breaker
	// Retry is the retry policy.
	Retry RetryConfig
	// DefaultDeadline bounds one execution attempt when the request
	// carries no deadline of its own.
	DefaultDeadline time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
	// Now is the service-relative clock fed to the breaker.
	Now func() time.Duration
	// Sleep waits out retry backoff (ctx-aware; injectable for tests
	// and virtual-time drivers).
	Sleep func(ctx context.Context, d time.Duration)
	// OnRetry, when non-nil, is invoked once per scheduled retry (the
	// coordinator's stats counter hook).
	OnRetry func()
}

// Process runs one request to its final Result: breaker admission,
// then up to MaxAttempts executions with classified retries and
// deterministic seeded backoff between them.
func (p *Processor) Process(ctx context.Context, req Request) Result {
	key := req.Key()
	res := Result{Req: req}
	logf := p.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := p.Exec.Validate(req); err != nil {
		res.Status, res.Err, res.Class = StatusFailed, err, ClassTerminal
		return res
	}
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = p.DefaultDeadline
	}
	for attempt := 0; attempt < p.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := p.Retry.Delay(req.Seed, attempt-1)
			logf("serve: %s seed=0x%x retrying attempt %d after %v", key, req.Seed, attempt, d)
			p.Sleep(ctx, d)
			if p.OnRetry != nil {
				p.OnRetry()
			}
		}
		ok, token := p.Brk.Allow(key, p.Now())
		if !ok {
			res.Status, res.Err, res.Class = StatusRejected, ErrCircuitOpen, ClassTerminal
			res.Attempts = attempt
			return res
		}
		actx, cancel := context.WithTimeout(ctx, deadline)
		out := p.Exec.Execute(actx, req, AttemptSeed(req.Seed, attempt))
		cancel()
		p.Brk.Record(key, p.Now(), token, out.Err == nil)
		res.Attempts = attempt + 1
		res.Outcome, res.Cycles, res.Detail = out.Outcome, out.Cycles, out.Detail
		res.ECChecked, res.ECElided, res.Faults = out.ECChecked, out.ECElided, out.Faults
		res.BundleDigest = out.BundleDigest
		cls := Classify(out.Err)
		switch cls {
		case ClassOK:
			res.Status, res.Err, res.Class = StatusOK, nil, ClassOK
			return res
		case ClassTerminal:
			res.Status, res.Err, res.Class = StatusFailed, out.Err, cls
			return res
		}
		res.Err, res.Class = out.Err, cls
		// If the client itself is gone, stop retrying on its behalf.
		if ctx.Err() != nil {
			res.Status = StatusFailed
			res.Err = fmt.Errorf("serve: client gone: %w", ctx.Err())
			res.Class = ClassTerminal
			return res
		}
	}
	res.Status = StatusExhausted
	return res
}
