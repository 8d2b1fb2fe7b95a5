// Package serve holds the shard-local serving pieces over the
// simulation stack. It accepts kernel-execution requests (workload,
// mechanism, optional chaos injection, seed) and executes them on the
// existing runner/sim machinery with production-grade robustness:
// per-request context deadlines threaded into the simulator's
// watchdog, an error classifier that separates retryable from terminal
// failures, deterministic exponential backoff with seeded jitter, and
// a per-(workload, mechanism) circuit breaker.
//
// internal/fleet's serving state machine makes every admission, retry
// and breaker decision over these pieces, in both of its drivers. Its
// Coordinator hosts it behind cmd/lmi-serve's HTTP/JSON surface with
// the real clock and real concurrency (one shard is the single-node
// service). Its FleetSoak replays a seeded request stream through it
// on a virtual timeline: attempt outcomes are precomputed in parallel
// here (PrecomputeAttempts; each is a pure function of its seed) and
// the serving dynamics are then simulated single-threaded in virtual
// time, so the soak report is byte-identical for any -jobs value.
package serve

import (
	"context"
	"errors"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/runner"
	"lmi/internal/sim"
)

// Typed service-level failures. Every request failure a client can
// observe is one of these sentinels (possibly wrapped with detail) or a
// typed simulator error (*sim.WatchdogError, *sim.ContextError,
// *sim.CycleLimitError, *sim.PanicError); the process itself never
// dies on a request.
var (
	// ErrOverloaded sheds a request at admission: the bounded queue is
	// at capacity. Clients should back off and retry elsewhere.
	ErrOverloaded = errors.New("serve: overloaded: admission queue full")
	// ErrCircuitOpen rejects a request whose (workload, mechanism)
	// breaker is open: the cell has been failing consistently and is in
	// cooldown.
	ErrCircuitOpen = errors.New("serve: circuit open for this workload/mechanism")
	// ErrDraining rejects new work while the server shuts down
	// gracefully (in-flight requests still complete).
	ErrDraining = errors.New("serve: draining: not accepting new requests")
	// ErrSilentCorruption reports a run whose injected fault went
	// undetected: the kernel completed but its memory state is wrong.
	ErrSilentCorruption = errors.New("serve: silent corruption: injected fault went undetected")
	// ErrFalsePositive reports a fault raised on a run that injected no
	// violation the mechanism should report.
	ErrFalsePositive = errors.New("serve: false positive: fault raised with no injected violation")
	// ErrSafetyViolation reports a recorded safety fault on a plain
	// benchmark run (no injection requested), i.e. the guest program
	// itself violated memory safety.
	ErrSafetyViolation = errors.New("serve: safety violation detected")
	// ErrBadRequest reports an invalid request (unknown workload,
	// mechanism, or injection kind; non-positive parameters).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrEngineDegraded reports a run the simulator itself failed to
	// execute cleanly for a non-transient reason (e.g. a wedged device
	// after exhaustion); distinct from watchdog kills, which are
	// transient and retried.
	ErrEngineDegraded = errors.New("serve: engine degraded")
)

// Request is one kernel-execution request.
type Request struct {
	// Workload is a Table V benchmark name for plain simulation runs.
	// Empty selects the chaos victim kernels (Kind then says which
	// injection to replay; KindControl runs the clean victim).
	Workload string `json:"workload,omitempty"`
	// Mechanism names the safety mechanism: one of the chaos campaign's
	// mechanisms (lmi, lmi+track, baggybounds, gpushield) for injection
	// requests, or a variant name (baseline, lmi, gpushield,
	// baggybounds, lmi-dbi, memcheck) for benchmark runs.
	Mechanism string `json:"mechanism"`
	// Kind is the chaos injection to replay ("" or "control" for none).
	Kind chaos.Kind `json:"kind,omitempty"`
	// Seed makes the request reproducible: the injection and all retry
	// jitter derive from it.
	Seed uint64 `json:"seed"`
	// SMs sizes the simulated device (0 = the server default).
	SMs int `json:"sms,omitempty"`
	// Deadline bounds one execution attempt. In the live server it
	// becomes a context deadline threaded into the simulator's
	// watchdog; in the soak's virtual timeline it bounds the attempt's
	// virtual service time. 0 means the server default.
	Deadline time.Duration `json:"deadline_ns,omitempty"`
}

// Key is the circuit-breaker cell the request belongs to:
// "workload/mechanism", with the chaos victims collectively named
// "chaos".
func (r Request) Key() string {
	w := r.Workload
	if w == "" {
		w = "chaos"
	}
	return w + "/" + r.Mechanism
}

// Class is the retry classification of a request failure.
type Class string

const (
	// ClassOK marks a successful execution (for injection requests:
	// the mechanism either detected the fault or was architecturally
	// unaffected by it).
	ClassOK Class = "ok"
	// ClassRetryable marks transient failures: watchdog kills, cycle
	// budget overruns, attempt deadlines. A later attempt with a fresh
	// derived seed may succeed.
	ClassRetryable Class = "retryable"
	// ClassTerminal marks failures no retry can fix: safety violations,
	// silent corruption, false positives, bad requests, engine panics,
	// abandoned (cancelled) requests.
	ClassTerminal Class = "terminal"
)

// Classify maps an execution error to its retry class. Unknown errors
// are terminal: retrying an unexplained failure hides bugs.
func Classify(err error) Class {
	if err == nil {
		return ClassOK
	}
	// A per-attempt deadline is transient — the next attempt gets a
	// fresh one — but a cancelled context means the client is gone.
	var ce *sim.ContextError
	if errors.As(err, &ce) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		if errors.Is(err, context.DeadlineExceeded) {
			return ClassRetryable
		}
		return ClassTerminal
	}
	var we *sim.WatchdogError
	var cl *sim.CycleLimitError
	if errors.As(err, &we) || errors.As(err, &cl) {
		return ClassRetryable
	}
	var spe *sim.PanicError
	var rpe *runner.PanicError
	if errors.As(err, &spe) || errors.As(err, &rpe) {
		return ClassTerminal
	}
	return ClassTerminal
}

// Status is a request's final disposition after admission, execution,
// and retries.
type Status string

const (
	// StatusOK: an attempt succeeded.
	StatusOK Status = "ok"
	// StatusShed: load-shed at admission (ErrOverloaded).
	StatusShed Status = "shed"
	// StatusRejected: refused by an open circuit breaker.
	StatusRejected Status = "rejected"
	// StatusFailed: a terminal failure (no retry attempted).
	StatusFailed Status = "failed"
	// StatusExhausted: every allowed attempt failed retryably.
	StatusExhausted Status = "exhausted"
)

// Result is a request's final outcome.
type Result struct {
	// Req is the request as executed.
	Req Request
	// Status is the final disposition.
	Status Status
	// Attempts is the number of execution attempts made (0 for shed or
	// rejected requests).
	Attempts int
	// Err is the final error (nil when Status is StatusOK). Always one
	// of the package's typed sentinels or a typed simulator error.
	Err error
	// Class is Classify(Err) (ClassOK when Err is nil).
	Class Class
	// Outcome is the chaos classification when the request replayed an
	// injection ("" for plain benchmark runs).
	Outcome chaos.Outcome
	// Cycles is the simulated length of the last attempt's launch (0
	// when no attempt produced kernel statistics).
	Cycles uint64
	// ECChecked and ECElided are the last attempt's extent-check
	// counters: lane accesses routed through the mechanism's check vs
	// accesses whose check the compiler discharged statically.
	ECChecked uint64
	ECElided  uint64
	// Faults is the number of safety-fault records the last attempt's
	// launch produced (0 for clean or pre-execution dispositions).
	Faults int
	// Detail is the human-readable description of the last attempt.
	Detail string
	// BundleDigest is the digest of the verified bundle that served the
	// last attempt's program ("" when the executor compiled in-process
	// or no attempt executed).
	BundleDigest string
}

// Stats is the serving counter snapshot (all values monotonic except
// Depth and InFlight). Accepted counts admitted requests; every one of
// them ends in exactly one of OK, Rejected, Failed or Exhausted, and
// Shed counts the requests refused at admission.
type Stats struct {
	Accepted  uint64 `json:"accepted"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	OK        uint64 `json:"ok"`
	Failed    uint64 `json:"failed"`
	Exhausted uint64 `json:"exhausted"`
	Retries   uint64 `json:"retries"`
	// Depth is the total queued now and HighWater its maximum so far.
	Depth     int `json:"queue_depth"`
	HighWater int `json:"queue_high_water"`
	InFlight  int `json:"in_flight"`
}

// TypedError reports whether err is one of the serving layer's typed
// failures (a package sentinel, a typed simulator/runner error, or a
// context error). The fleet layer extends it with its own sentinels in
// its robustness audit.
func TypedError(err error) bool {
	for _, s := range []error{
		ErrOverloaded, ErrCircuitOpen, ErrDraining, ErrSilentCorruption,
		ErrFalsePositive, ErrSafetyViolation, ErrBadRequest, ErrEngineDegraded,
		context.DeadlineExceeded, context.Canceled,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	var (
		we  *sim.WatchdogError
		cl  *sim.CycleLimitError
		ce  *sim.ContextError
		spe *sim.PanicError
		rpe *runner.PanicError
	)
	return errors.As(err, &we) || errors.As(err, &cl) || errors.As(err, &ce) ||
		errors.As(err, &spe) || errors.As(err, &rpe)
}

// IsPanicError reports whether err carries a recovered engine panic —
// the one failure family that must never reach a request result.
func IsPanicError(err error) bool {
	var spe *sim.PanicError
	var rpe *runner.PanicError
	return errors.As(err, &spe) || errors.As(err, &rpe)
}
