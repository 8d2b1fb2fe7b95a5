package fleet

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/runner"
	"lmi/internal/serve"
)

// Config parameterises the live fleet coordinator.
type Config struct {
	// Shards is the number of simulated device workers (default 1: the
	// single-node service).
	Shards int
	// WorkersPerShard sizes each shard's execution pool (default
	// LMI_JOBS, else GOMAXPROCS, like the batch runner).
	WorkersPerShard int
	// QueueCapacity bounds each shard's admission queue; a full queue
	// sheds with serve.ErrOverloaded (default 16).
	QueueCapacity int
	// FleetBudget bounds the total queued across shards; admission at
	// it sheds with ErrFleetOverloaded and /readyz reports 503 (default
	// 3/4 of the summed shard capacity).
	FleetBudget int
	// SMs sizes the simulated device per shard (default 1).
	SMs int
	// Tier selects the execution tier (default the cycle simulator).
	Tier fastsim.Tier
	// Specialize has every shard serve contract-specialized residuals
	// for launches matching an entry's concrete contract (general
	// fallback on mismatch).
	Specialize bool
	// DefaultDeadline bounds one execution attempt (default 30s).
	DefaultDeadline time.Duration
	// Breaker and Retry are the per-shard serving policies.
	Breaker serve.BreakerConfig
	Retry   serve.RetryConfig
	// BundlePub is the trusted artifact-signing key. Reload (and POST
	// /reload) verifies every incoming bundle against it; with no key
	// configured every bundle is refused — there is no
	// trust-on-first-use mode.
	BundlePub ed25519.PublicKey
	// DecisionLog receives the JSONL safety decision records (nil
	// discards them); LogBuffer bounds the async sink (default 256).
	DecisionLog io.Writer
	LogBuffer   int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = runner.DefaultWorkers()
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 16
	}
	if c.FleetBudget <= 0 {
		c.FleetBudget = c.Shards * c.QueueCapacity * 3 / 4
	}
	if c.SMs <= 0 {
		c.SMs = 1
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	c.Breaker = c.Breaker.WithDefaults()
	c.Retry = c.Retry.WithDefaults()
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// liveTask is what a Submit waiting on an admitted request leaves for
// the worker that serves it.
type liveTask struct {
	ctx  context.Context
	req  serve.Request
	done chan serve.Result
}

// Coordinator is the live serving driver of the fleet's state machine.
// Submit admits on the caller's goroutine; each shard's workers take
// requests off its queue, run the attempts the machine starts on the
// shard's executor, and sleep out the backoff of the retries it
// schedules. The machine's decisions are made under mu on the wall
// clock. One shard is the single-node service.
type Coordinator struct {
	cfg   Config
	execs []*serve.Executor // per shard: its warm compiled-program cache
	// execute runs one attempt on a shard's executor (tests substitute
	// it to script attempt outcomes).
	execute func(ctx context.Context, shard int, req serve.Request, attempt int) serve.Outcome
	// wake[i] holds one token per request queued on shard i. It is
	// sized to the shard queue, which the machine never overfills, so
	// Submit's send under mu cannot block. Shutdown closes it.
	wake  []chan struct{}
	sink  *Sink
	start time.Time
	wg    sync.WaitGroup

	// mu guards the machine, draining and the waiting tasks.
	mu       sync.Mutex
	m        *machine
	draining bool
	waiting  map[int]liveTask

	// reloadMu serializes Reload; verification and per-shard bring-up
	// run under it, never on the serving path. serving is the fleet's
	// current verified bundle (guarded by mu for readers).
	reloadMu   sync.Mutex
	serving    *bundle.Verified
	reloads    uint64
	lastReload string
}

// NewCoordinator builds the fleet and starts every shard's workers.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		execs:   make([]*serve.Executor, cfg.Shards),
		wake:    make([]chan struct{}, cfg.Shards),
		start:   time.Now(),
		waiting: make(map[int]liveTask),
	}
	for i := range c.execs {
		exec, err := serve.NewExecutorTier(cfg.SMs, cfg.Tier)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d executor: %w", i, err)
		}
		exec.SetSpecialize(cfg.Specialize)
		c.execs[i] = exec
	}
	c.execute = func(ctx context.Context, shard int, req serve.Request, attempt int) serve.Outcome {
		return c.execs[shard].Execute(ctx, req, serve.AttemptSeed(req.Seed, attempt))
	}
	logW := cfg.DecisionLog
	if logW == nil {
		logW = io.Discard
	}
	c.sink = NewSink(logW, cfg.LogBuffer)
	c.m = newMachine(shape{
		shards: cfg.Shards, queueCap: cfg.QueueCapacity, budget: cfg.FleetBudget,
		retry: cfg.Retry, breaker: cfg.Breaker, tier: runner.TierLabel(cfg.Tier),
	}, c.sink, func(seq int, res serve.Result) {
		if t, ok := c.waiting[seq]; ok {
			t.done <- res
			delete(c.waiting, seq)
		}
	})
	for i := range c.wake {
		c.wake[i] = make(chan struct{}, cfg.QueueCapacity)
		c.wg.Add(cfg.WorkersPerShard)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			go c.worker(i)
		}
	}
	return c, nil
}

// now is the service-relative wall clock the machine's events carry.
func (c *Coordinator) now() time.Duration { return time.Since(c.start) }

// worker serves shard i's queue until Shutdown closes it. It carries
// every request it dequeues to a final disposition — counters and
// decision record — even when the client gave up while it was queued.
func (c *Coordinator) worker(i int) {
	defer c.wg.Done()
	for range c.wake[i] {
		c.mu.Lock()
		seq, _ := c.m.Dequeue(i)
		t := c.waiting[seq]
		c.mu.Unlock()
		c.serve(i, seq, t)
	}
}

// serve runs one dequeued request's attempts. The machine decides
// whether each attempt may start and what follows it; the worker
// executes them and sleeps out each retry's backoff, so a retrying
// request holds its worker and never re-enters admission.
func (c *Coordinator) serve(shard, seq int, t liveTask) {
	if err := c.execs[shard].Validate(t.req); err != nil {
		c.mu.Lock()
		c.m.Refuse(seq, err)
		c.mu.Unlock()
		return
	}
	deadline := t.req.Deadline
	if deadline <= 0 {
		deadline = c.cfg.DefaultDeadline
	}
	for {
		c.mu.Lock()
		attempt, ok := c.m.Start(seq, c.now())
		c.mu.Unlock()
		if !ok {
			return
		}
		actx, cancel := context.WithTimeout(t.ctx, deadline)
		out := c.execute(actx, shard, t.req, attempt)
		cancel()
		c.mu.Lock()
		backoff, retry := c.m.Finish(seq, c.now(), out, t.ctx.Err())
		c.mu.Unlock()
		if !retry {
			return
		}
		c.cfg.Logf("serve: %s seed=0x%x retrying attempt %d after %v", t.req.Key(), t.req.Seed, attempt+1, backoff)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-t.ctx.Done():
			timer.Stop()
		}
	}
}

// Submit admits one request: the machine routes it to its shard and
// queues or sheds it, and a draining fleet refuses it; otherwise Submit
// waits for the final Result. The returned error is non-nil only when
// the request produced no result for this caller (shed, draining,
// client gone). Every admitted or shed request emits exactly one
// decision record.
func (c *Coordinator) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return serve.Result{}, serve.ErrDraining
	}
	seq, shard, err := c.m.Admit(req)
	if err != nil {
		c.mu.Unlock()
		return serve.Result{}, err
	}
	done := make(chan serve.Result, 1)
	c.waiting[seq] = liveTask{ctx: ctx, req: req, done: done}
	c.wake[shard] <- struct{}{}
	c.mu.Unlock()
	select {
	case res := <-done:
		return res, nil
	case <-ctx.Done():
		// The worker still finishes the attempt (its context is this
		// ctx, so the watchdog aborts it), records the decision, and
		// drops the result into the buffered channel.
		return serve.Result{}, fmt.Errorf("fleet: client gone: %w", ctx.Err())
	}
}

// Reload verifies b against the trusted key and, only on success,
// atomically swaps it in as every shard's program table. Verification
// and compiled-tier bring-up run off the serving path under reloadMu;
// each shard's swap is a single atomic store, and in-flight attempts
// finish on the table they loaded at dispatch. Any verification or
// bring-up failure is a typed, fail-closed rejection: shards already
// swapped are rolled back to the previous bundle and the prior digest
// keeps serving everywhere. Reloads are counted whether they succeed
// or not; the last status is "ok" or the rejection text.
func (c *Coordinator) Reload(b *bundle.Bundle) error {
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	v, err := bundle.Verify(b, c.cfg.BundlePub)
	if err == nil {
		c.mu.Lock()
		prev := c.serving
		c.mu.Unlock()
		for i, exec := range c.execs {
			if serr := exec.SetBundle(v); serr != nil {
				err = fmt.Errorf("fleet: shard %d: %w", i, serr)
				for _, swapped := range c.execs[:i] {
					// prev brought up on these shards before; reinstalling it
					// cannot fail a compile.
					swapped.SetBundle(prev)
				}
				break
			}
		}
	}
	c.mu.Lock()
	c.reloads++
	c.lastReload = "ok"
	if err != nil {
		c.lastReload = err.Error()
	} else {
		c.serving = v
	}
	c.mu.Unlock()
	if err != nil {
		c.cfg.Logf("fleet: reload rejected (still serving %q): %v", c.BundleDigest(), err)
		return err
	}
	c.cfg.Logf("fleet: reload ok, serving bundle %s on %d shards", v.Digest(), len(c.execs))
	return nil
}

// BundleDigest is the fleet's serving bundle digest ("" when not
// bundle-backed).
func (c *Coordinator) BundleDigest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.serving == nil {
		return ""
	}
	return c.serving.Digest()
}

// ShutdownReport is the JSON document flushed on graceful drain.
type ShutdownReport struct {
	Uptime      time.Duration                   `json:"uptime_ns"`
	Stats       serve.Stats                     `json:"stats"`
	Shards      []ShardSummary                  `json:"shards"`
	Breakers    []map[string]serve.BreakerState `json:"breakers"`
	Transitions []ShardTransition               `json:"breaker_transitions"`
	Decisions   SinkStats                       `json:"decisions"`
}

// Shutdown drains gracefully: stop accepting (Submit returns
// ErrDraining), let every shard finish its queue and in-flight work,
// close the decision sink, and return the report. ctx bounds the wait;
// on expiry the report carries whatever completed. Safe to call more
// than once.
func (c *Coordinator) Shutdown(ctx context.Context) ShutdownReport {
	c.mu.Lock()
	if !c.draining {
		c.draining = true
		for _, w := range c.wake {
			close(w)
		}
	}
	c.mu.Unlock()
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		c.cfg.Logf("fleet: drain deadline expired with work in flight")
	}
	c.sink.Close()
	rep := ShutdownReport{Uptime: time.Since(c.start), Decisions: c.sink.Stats()}
	rep.Stats, rep.Shards, rep.Breakers = c.snapshot()
	c.mu.Lock()
	rep.Transitions = c.m.transitions()
	c.mu.Unlock()
	return rep
}

// snapshot copies the fleet counters, the per-shard summaries, and
// each shard's breaker cells.
func (c *Coordinator) snapshot() (serve.Stats, []ShardSummary, []map[string]serve.BreakerState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	breakers := make([]map[string]serve.BreakerState, len(c.m.brks))
	for i, b := range c.m.brks {
		breakers[i] = b.Snapshot()
	}
	return c.m.stats, append([]ShardSummary(nil), c.m.perShard...), breakers
}

// Handler returns the HTTP surface: POST /run, POST /reload, GET
// /healthz, /readyz, /stats.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", c.handleRun)
	mux.HandleFunc("/reload", c.handleReload)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// The process is alive; that is the whole contract.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		draining, depth := c.draining, c.m.stats.Depth
		c.mu.Unlock()
		switch {
		case draining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case depth >= c.cfg.FleetBudget:
			http.Error(w, fmt.Sprintf("fleet depth %d at budget %d", depth, c.cfg.FleetBudget),
				http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st, shards, breakers := c.snapshot()
		c.mu.Lock()
		draining, reloads, lastReload := c.draining, c.reloads, c.lastReload
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Uptime time.Duration `json:"uptime_ns"`
			// Tier records a non-default execution tier ("compiled");
			// omitted for the cycle-level simulator, matching the runner
			// jobJSON convention.
			Tier     string `json:"tier,omitempty"`
			Draining bool   `json:"draining"`
			// The bundle fields are omitted entirely when the fleet is
			// not bundle-backed and no reload was ever attempted.
			BundleDigest     string                          `json:"bundle_digest,omitempty"`
			ReloadCount      uint64                          `json:"reload_count,omitempty"`
			LastReloadStatus string                          `json:"last_reload_status,omitempty"`
			Stats            serve.Stats                     `json:"stats"`
			Shards           []ShardSummary                  `json:"shards"`
			Breakers         []map[string]serve.BreakerState `json:"breakers"`
			Decisions        SinkStats                       `json:"decisions"`
		}{time.Since(c.start), runner.TierLabel(c.cfg.Tier), draining,
			c.BundleDigest(), reloads, lastReload, st, shards, breakers, c.sink.Stats()})
	})
	return mux
}

// maxReloadBytes caps a /reload body at 16 MiB, about 23 times the
// 28-entry :spec bundle (711,259 bytes).
const maxReloadBytes = 16 << 20

// maxRunBytes caps a /run body at 4 KiB. A request with every field
// at its longest spelling (a 20-digit seed, the longest workload,
// mechanism and injection names, a 19-digit deadline) is under 200
// bytes; the rest is room for a client's whitespace.
const maxRunBytes = 4 << 10

// handleReload is POST /reload: decode a bundle from the body, verify,
// and swap fleet-wide. A rejected bundle, an over-cap body among them,
// answers 422 with the typed reason; the previous table keeps serving
// on every shard.
func (c *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	b, err := bundle.Decode(http.MaxBytesReader(w, r.Body, maxReloadBytes))
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		err = bundle.Reject(bundle.ReasonMalformed, "reload body exceeds %d bytes", tooBig.Limit)
	}
	if err == nil {
		err = c.Reload(b)
	}
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(struct {
			Status  string              `json:"status"`
			Reason  bundle.RejectReason `json:"reason,omitempty"`
			Error   string              `json:"error"`
			Serving string              `json:"serving_bundle_digest,omitempty"`
		}{"rejected", bundle.RejectionReason(err), err.Error(), c.BundleDigest()})
		return
	}
	json.NewEncoder(w).Encode(struct {
		Status  string `json:"status"`
		Serving string `json:"serving_bundle_digest"`
	}{"ok", c.BundleDigest()})
}

// handleRun is POST /run: decode, submit, map the disposition onto an
// HTTP status (200 executed-ok, 400 bad request, 429 shed, 503
// circuit-open or draining, 502 failed/exhausted). A body over
// maxRunBytes is a bad request like any other undecodable body.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req serve.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBytes)).Decode(&req); err != nil {
		writeResult(w, http.StatusBadRequest, serve.Result{
			Status: serve.StatusFailed, Class: serve.ClassTerminal,
			Err: fmt.Errorf("%w: %v", serve.ErrBadRequest, err),
		})
		return
	}
	res, err := c.Submit(r.Context(), req)
	if err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, ErrFleetOverloaded) {
			code = http.StatusTooManyRequests
		}
		writeResult(w, code, serve.Result{Status: serve.StatusShed, Class: serve.ClassTerminal, Err: err})
		return
	}
	code := http.StatusOK
	switch res.Status {
	case serve.StatusOK:
	case serve.StatusRejected:
		code = http.StatusServiceUnavailable
	default:
		code = http.StatusBadGateway
		if errors.Is(res.Err, serve.ErrBadRequest) {
			code = http.StatusBadRequest
		}
	}
	writeResult(w, code, res)
}

// resultJSON is the wire form of a Result.
type resultJSON struct {
	Status    serve.Status  `json:"status"`
	Attempts  int           `json:"attempts"`
	Class     serve.Class   `json:"class,omitempty"`
	Outcome   chaos.Outcome `json:"outcome,omitempty"`
	Cycles    uint64        `json:"cycles,omitempty"`
	ECChecked uint64        `json:"ec_checked,omitempty"`
	ECElided  uint64        `json:"ec_elided,omitempty"`
	Detail    string        `json:"detail,omitempty"`
	Error     string        `json:"error,omitempty"`
	Bundle    string        `json:"bundle_digest,omitempty"`
}

// writeResult renders a Result as JSON with the given HTTP status.
func writeResult(w http.ResponseWriter, code int, res serve.Result) {
	rj := resultJSON{
		Status:    res.Status,
		Attempts:  res.Attempts,
		Class:     res.Class,
		Outcome:   res.Outcome,
		Cycles:    res.Cycles,
		ECChecked: res.ECChecked,
		ECElided:  res.ECElided,
		Detail:    res.Detail,
		Bundle:    res.BundleDigest,
	}
	if res.Err != nil {
		rj.Error = res.Err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(rj)
}
