package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/runner"
)

// SoakConfig parameterises a chaos soak: a seeded stream of injection
// requests replayed through the serving state machines on a virtual
// timeline.
type SoakConfig struct {
	// Seed derives the whole stream: request mix, arrival pattern,
	// per-request seeds, deadlines, and retry jitter.
	Seed uint64
	// Requests is the stream length (default 200).
	Requests int
	// Workers sizes the precompute worker pool (<= 0 = LMI_JOBS /
	// GOMAXPROCS). It affects wall-clock time only, never the report.
	Workers int
	// SMs sizes the simulated device (default 1).
	SMs int
	// Tier selects the execution tier attempts simulate on (default
	// the cycle-level simulator).
	Tier fastsim.Tier
	// VirtualServers is how many requests execute concurrently on the
	// virtual timeline (default 2).
	VirtualServers int
	// QueueCapacity bounds the virtual admission queue (default 8).
	QueueCapacity int
	// ArrivalEvery is the base inter-arrival gap; bursts arrive at a
	// sixth of it (default 60µs).
	ArrivalEvery time.Duration
	// Breaker and Retry are the serving policies under test. Zero
	// fields take soak-scale defaults (cooldowns in virtual
	// milliseconds, not wall seconds).
	Breaker BreakerConfig
	Retry   RetryConfig
}

// withDefaults fills zero fields with soak-scale values.
func (sc SoakConfig) withDefaults() SoakConfig {
	if sc.Requests <= 0 {
		sc.Requests = 200
	}
	if sc.SMs <= 0 {
		sc.SMs = 1
	}
	if sc.VirtualServers <= 0 {
		sc.VirtualServers = 2
	}
	if sc.QueueCapacity <= 0 {
		sc.QueueCapacity = 8
	}
	if sc.ArrivalEvery <= 0 {
		sc.ArrivalEvery = 60 * time.Microsecond
	}
	if sc.Breaker.Cooldown <= 0 {
		sc.Breaker.Cooldown = 1500 * time.Microsecond
	}
	sc.Breaker = sc.Breaker.withDefaults()
	if sc.Retry.BackoffBase <= 0 {
		sc.Retry.BackoffBase = 2 * time.Millisecond
	}
	if sc.Retry.BackoffMax <= 0 {
		sc.Retry.BackoffMax = 16 * time.Millisecond
	}
	sc.Retry = sc.Retry.withDefaults()
	return sc
}

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

// soakGen draws the request stream deterministically from the master
// seed (counter-mode over the chaos seed mixer).
type soakGen struct {
	seed uint64
	n    uint64
}

func (g *soakGen) next() uint64 {
	g.n++
	return chaos.MixSeed(g.seed, g.n)
}

func (g *soakGen) intn(n int) int { return int(g.next() % uint64(n)) }

// genStream builds the seeded request stream: mostly independent
// requests across mechanisms and injection kinds, with occasional
// bursts of one (mechanism, kind) pair — the pattern that trips a
// breaker cell when the mechanism consistently misses that kind — and
// occasional tight per-attempt deadlines that exercise the retry path.
func genStream(cfg SoakConfig, inj *chaos.Injector) ([]Request, []time.Duration) {
	g := &soakGen{seed: cfg.Seed}
	mechs := inj.Mechanisms()
	reqs := make([]Request, cfg.Requests)
	arrivals := make([]time.Duration, cfg.Requests)
	var now time.Duration
	burstLeft := 0
	var burstMech string
	var burstKind chaos.Kind
	for i := range reqs {
		var mech string
		var kind chaos.Kind
		switch {
		case burstLeft > 0:
			mech, kind = burstMech, burstKind
			burstLeft--
			now += cfg.ArrivalEvery / 6
		case g.intn(6) == 0:
			burstMech = mechs[g.intn(len(mechs))]
			kinds := inj.EligibleKinds(burstMech)
			burstKind = kinds[g.intn(len(kinds))]
			burstLeft = 6 + g.intn(5)
			mech, kind = burstMech, burstKind
			now += cfg.ArrivalEvery
		default:
			mech = mechs[g.intn(len(mechs))]
			kinds := inj.EligibleKinds(mech)
			if g.intn(3) == 0 {
				kind = chaos.KindControl
			} else {
				kind = kinds[g.intn(len(kinds))]
			}
			now += cfg.ArrivalEvery
		}
		req := Request{Mechanism: mech, Kind: kind, Seed: g.next()}
		if g.intn(4) == 0 {
			req.Deadline = 70*time.Microsecond + time.Duration(g.intn(4))*10*time.Microsecond
		}
		reqs[i] = req
		arrivals[i] = now
	}
	return reqs, arrivals
}

// PrecomputeAttempts executes attempt waves on the worker pool. Wave 0
// is every request's first attempt; wave k holds only the requests
// whose attempt k-1 failed retryably — a deterministic superset of the
// attempts a virtual-time replay will consume, regardless of how the
// replay's queue and breaker dynamics play out. Each attempt is a pure
// function of (request, derived seed), so worker count cannot change a
// single byte of it. Both the single-server soak and the fleet soak
// replay over this table.
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

// Event kinds on the virtual timeline.
const (
	evArrive = iota // request (or retry) joins the admission queue
	evFinish        // an attempt releases its virtual server
)

// soakEvent is one scheduled occurrence on the virtual timeline.
type soakEvent struct {
	at      time.Duration
	seq     int // tie-break: push order
	kind    int
	req     int
	attempt int
	token   uint64 // breaker probe token of the running attempt (evFinish)
}

// eventHeap orders events by (at, seq) — a total, push-order-stable
// order, so the replay is deterministic.
type eventHeap []soakEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(soakEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// SoakReport is the deterministic output of one soak run. It contains
// no wall-clock data: every field is a pure function of the config.
type SoakReport struct {
	Config      SoakConfig
	Results     []Result
	Transitions []Transition
	Counts      map[Status]int
	Outcomes    map[chaos.Outcome]int
	Retries     int
	HighWater   int
	Makespan    time.Duration
}

// Soak runs the chaos soak: generate the seeded stream, precompute
// attempt outcomes in parallel, then replay the serving dynamics —
// bounded queue, load shedding, classified retries with backoff,
// circuit breaking — single-threaded on the virtual timeline.
func Soak(ctx context.Context, cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	exec, err := NewExecutorTier(cfg.SMs, cfg.Tier)
	if err != nil {
		return nil, fmt.Errorf("soak: building executor: %w", err)
	}
	reqs, arrivals := genStream(cfg, exec.Injector())
	attempts, err := PrecomputeAttempts(ctx, cfg.Workers, cfg.Retry, exec, reqs)
	if err != nil {
		return nil, fmt.Errorf("soak: precompute: %w", err)
	}

	rep := &SoakReport{
		Config:   cfg,
		Results:  make([]Result, len(reqs)),
		Counts:   make(map[Status]int),
		Outcomes: make(map[chaos.Outcome]int),
	}
	brk := NewBreaker(cfg.Breaker)

	type queued struct{ req, attempt int }
	var (
		queue []queued
		free  = cfg.VirtualServers
		h     eventHeap
		seq   int
		now   time.Duration
	)
	push := func(at time.Duration, kind, req, attempt int, token uint64) {
		heap.Push(&h, soakEvent{at: at, seq: seq, kind: kind, req: req, attempt: attempt, token: token})
		seq++
	}
	finalize := func(req int, st Status, attemptsMade int, ferr error) {
		ar := Outcome{}
		if attemptsMade > 0 {
			ar = attempts[req][attemptsMade-1].Out
		}
		rep.Results[req] = Result{
			Req:       reqs[req],
			Status:    st,
			Attempts:  attemptsMade,
			Err:       ferr,
			Class:     Classify(ferr),
			Outcome:   ar.Outcome,
			Cycles:    ar.Cycles,
			ECChecked: ar.ECChecked,
			ECElided:  ar.ECElided,
			Faults:    ar.Faults,
			Detail:    ar.Detail,

			BundleDigest: ar.BundleDigest,
		}
		rep.Counts[st]++
		if ar.Outcome != "" {
			rep.Outcomes[ar.Outcome]++
		}
	}
	dispatch := func() {
		for free > 0 && len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			ok, token := brk.Allow(reqs[q.req].Key(), now)
			if !ok {
				finalize(q.req, StatusRejected, q.attempt, ErrCircuitOpen)
				continue
			}
			free--
			push(now+attempts[q.req][q.attempt].Dur, evFinish, q.req, q.attempt, token)
		}
	}

	for i := range reqs {
		push(arrivals[i], evArrive, i, 0, 0)
	}
	heap.Init(&h)
	for h.Len() > 0 {
		e := heap.Pop(&h).(soakEvent)
		now = e.at
		switch e.kind {
		case evArrive:
			if len(queue) >= cfg.QueueCapacity {
				finalize(e.req, StatusShed, e.attempt, ErrOverloaded)
				break
			}
			queue = append(queue, queued{req: e.req, attempt: e.attempt})
			if len(queue) > rep.HighWater {
				rep.HighWater = len(queue)
			}
		case evFinish:
			free++
			ar := attempts[e.req][e.attempt]
			brk.Record(reqs[e.req].Key(), now, e.token, ar.Out.Err == nil)
			switch cls := Classify(ar.Out.Err); {
			case cls == ClassOK:
				finalize(e.req, StatusOK, e.attempt+1, nil)
			case cls == ClassRetryable && e.attempt+1 < cfg.Retry.MaxAttempts:
				rep.Retries++
				push(now+cfg.Retry.Delay(reqs[e.req].Seed, e.attempt), evArrive, e.req, e.attempt+1, 0)
			case cls == ClassRetryable:
				finalize(e.req, StatusExhausted, e.attempt+1, ar.Out.Err)
			default:
				finalize(e.req, StatusFailed, e.attempt+1, ar.Out.Err)
			}
		}
		dispatch()
	}
	rep.Makespan = now
	rep.Transitions = brk.Transitions()
	return rep, nil
}

// Violations audits the report against the soak's robustness contract
// and returns one message per breach (empty = clean run). The contract:
// every request gets a final result; every failure carries a typed
// error whose class matches its status; no engine panic reaches a
// result; the breaker log is internally consistent.
func (r *SoakReport) Violations() []string {
	var v []string
	for i, res := range r.Results {
		switch res.Status {
		case "":
			v = append(v, fmt.Sprintf("request %d: no final result", i))
			continue
		case StatusOK:
			if res.Err != nil {
				v = append(v, fmt.Sprintf("request %d: ok but err=%v", i, res.Err))
			}
			continue
		}
		if res.Err == nil {
			v = append(v, fmt.Sprintf("request %d: status %s with nil error", i, res.Status))
			continue
		}
		if !typedError(res.Err) {
			v = append(v, fmt.Sprintf("request %d: untyped error %T: %v", i, res.Err, res.Err))
		}
		if panicError(res.Err) {
			v = append(v, fmt.Sprintf("request %d: engine panic escaped into result: %v", i, res.Err))
		}
		if res.Class != Classify(res.Err) {
			v = append(v, fmt.Sprintf("request %d: class %s does not match error class %s",
				i, res.Class, Classify(res.Err)))
		}
	}
	state := make(map[string]BreakerState)
	for i, t := range r.Transitions {
		from := state[t.Key]
		if from == "" {
			from = BreakerClosed
		}
		if t.From != from {
			v = append(v, fmt.Sprintf("transition %d: %s from %s but cell was %s", i, t.Key, t.From, from))
		}
		state[t.Key] = t.To
	}
	return v
}

// Render writes the deterministic text report. verbose adds the
// per-request log.
func (r *SoakReport) Render(w io.Writer, verbose bool) {
	cfg := r.Config
	fmt.Fprintf(w, "lmi-serve soak  seed=0x%x  requests=%d  servers=%d  queue=%d  arrival=%v\n",
		cfg.Seed, cfg.Requests, cfg.VirtualServers, cfg.QueueCapacity, cfg.ArrivalEvery)
	fmt.Fprintf(w, "retry: %d attempts, base %v, cap %v   breaker: open@%d, cooldown %v, close@%d probes\n",
		cfg.Retry.MaxAttempts, cfg.Retry.BackoffBase, cfg.Retry.BackoffMax,
		cfg.Breaker.FailThreshold, cfg.Breaker.Cooldown, cfg.Breaker.ProbeSuccesses)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %s\n", "status", "count")
	for _, st := range []Status{StatusOK, StatusFailed, StatusExhausted, StatusShed, StatusRejected} {
		fmt.Fprintf(w, "%-12s %d\n", st, r.Counts[st])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "chaos outcomes:")
	for _, o := range []chaos.Outcome{chaos.OutcomeClean, chaos.OutcomeDetected, chaos.OutcomeTolerated,
		chaos.OutcomeMissed, chaos.OutcomeFalsePositive, chaos.OutcomeDegraded} {
		if n := r.Outcomes[o]; n > 0 {
			fmt.Fprintf(w, "  %s=%d", o, n)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "retries scheduled: %d\n", r.Retries)
	fmt.Fprintf(w, "queue high-watermark: %d of %d\n", r.HighWater, cfg.QueueCapacity)
	fmt.Fprintf(w, "virtual makespan: %v\n", r.Makespan)
	fmt.Fprintln(w)
	if len(r.Transitions) == 0 {
		fmt.Fprintln(w, "breaker transitions: none")
	} else {
		fmt.Fprintf(w, "breaker transitions (%d):\n", len(r.Transitions))
		for _, t := range r.Transitions {
			fmt.Fprintf(w, "  [%12v] %-18s %-9s -> %-9s %s\n", t.At, t.Key, t.From, t.To, t.Cause)
		}
	}
	final := make(map[string]BreakerState)
	for _, t := range r.Transitions {
		final[t.Key] = t.To
	}
	if len(final) > 0 {
		fmt.Fprintf(w, "breaker final states:")
		for _, k := range SortedKeys(final) {
			fmt.Fprintf(w, "  %s=%s", k, final[k])
		}
		fmt.Fprintln(w)
	}
	if verbose {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "per-request log:")
		for i, res := range r.Results {
			req := res.Req
			fmt.Fprintf(w, "  [%04d] %-18s %-18s seed=0x%016x status=%-9s attempts=%d class=%-9s",
				i, req.Key(), string(orControl(req.Kind)), req.Seed, res.Status, res.Attempts, res.Class)
			if res.Outcome != "" {
				fmt.Fprintf(w, " outcome=%s", res.Outcome)
			}
			if res.Err != nil {
				fmt.Fprintf(w, " err=%q", res.Err)
			}
			fmt.Fprintln(w)
		}
	}
	if v := r.Violations(); len(v) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "VIOLATIONS (%d):\n", len(v))
		for _, msg := range v {
			fmt.Fprintf(w, "  %s\n", msg)
		}
	}
}

// orControl renders an empty kind as the control it means.
func orControl(k chaos.Kind) chaos.Kind {
	if k == "" {
		return chaos.KindControl
	}
	return k
}

// TypedError reports whether err is one of the serving layer's typed
// failures (a package sentinel, a typed simulator/runner error, or a
// context error). The fleet layer extends it with its own sentinels in
// its robustness audit.
func TypedError(err error) bool { return typedError(err) }

// IsPanicError reports whether err carries a recovered engine panic —
// the one failure family that must never reach a request result.
func IsPanicError(err error) bool { return panicError(err) }

// typedError reports whether err is one of the serving layer's typed
// failures (a package sentinel, a typed simulator/runner error, or a
// context error).
func typedError(err error) bool {
	for _, s := range []error{
		ErrOverloaded, ErrCircuitOpen, ErrDraining, ErrSilentCorruption,
		ErrFalsePositive, ErrSafetyViolation, ErrBadRequest, ErrEngineDegraded,
		context.DeadlineExceeded, context.Canceled,
	} {
		if errors.Is(err, s) {
			return true
		}
	}
	return simTyped(err)
}
