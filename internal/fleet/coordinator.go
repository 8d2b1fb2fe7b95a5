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

// ringReplicas is the consistent-hash ring's virtual nodes per shard,
// for the live coordinator and the soak alike.
const ringReplicas = 16

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

type liveTask struct {
	ctx  context.Context
	req  serve.Request
	done chan serve.Result
}

// liveShard is one shard of the live fleet: its own executor (and
// therefore its own warm compiled-program cache), admission queue,
// breaker (inside the Processor), and worker pool.
type liveShard struct {
	proc  *serve.Processor
	queue chan liveTask
}

// Coordinator is the live serving driver: requests are routed by
// consistent hash to a shard, admitted against the shard's queue and
// the fleet budget, and run by the shard's worker pool through the
// shard-local Processor (classify, retry, breaker) on the real clock.
// One shard is the single-node service.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	alive  []bool // every shard: the live fleet never loses one
	shards []*liveShard
	sink   *Sink
	start  time.Time
	wg     sync.WaitGroup

	// mu guards the counters and the queues' admission: Submit enqueues
	// and Shutdown closes the queues under it.
	mu       sync.Mutex
	draining bool
	stats    serve.Stats
	executed []LiveShard
	seq      int

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
	execs := make([]*serve.Executor, cfg.Shards)
	for i := range execs {
		exec, err := serve.NewExecutorTier(cfg.SMs, cfg.Tier)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d executor: %w", i, err)
		}
		exec.SetSpecialize(cfg.Specialize)
		execs[i] = exec
	}
	logW := cfg.DecisionLog
	if logW == nil {
		logW = io.Discard
	}
	c := &Coordinator{
		cfg:      cfg,
		ring:     NewRing(cfg.Shards, ringReplicas),
		alive:    make([]bool, cfg.Shards),
		shards:   make([]*liveShard, cfg.Shards),
		sink:     NewSink(logW, cfg.LogBuffer),
		start:    time.Now(),
		executed: make([]LiveShard, cfg.Shards),
	}
	for i, exec := range execs {
		c.alive[i] = true
		c.shards[i] = &liveShard{
			proc: &serve.Processor{
				Exec:            exec,
				Brk:             serve.NewBreaker(cfg.Breaker),
				Retry:           cfg.Retry,
				DefaultDeadline: cfg.DefaultDeadline,
				Logf:            cfg.Logf,
				Now:             func() time.Duration { return time.Since(c.start) },
				Sleep: func(ctx context.Context, d time.Duration) {
					t := time.NewTimer(d)
					defer t.Stop()
					select {
					case <-t.C:
					case <-ctx.Done():
					}
				},
				OnRetry: func() {
					c.mu.Lock()
					c.stats.Retries++
					c.mu.Unlock()
				},
			},
			queue: make(chan liveTask, cfg.QueueCapacity),
		}
		c.wg.Add(cfg.WorkersPerShard)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			go c.worker(i)
		}
	}
	return c, nil
}

// worker drains shard i's queue until Shutdown closes it. It finalizes
// every task it dequeues — counters and decision record — even when
// the client gave up while the task was queued.
func (c *Coordinator) worker(i int) {
	defer c.wg.Done()
	sh := c.shards[i]
	for t := range sh.queue {
		c.mu.Lock()
		c.stats.InFlight++
		c.mu.Unlock()
		res := sh.proc.Process(t.ctx, t.req)
		brk := sh.proc.Brk.State(t.req.Key())
		c.mu.Lock()
		c.stats.InFlight--
		c.executed[i].Executed++
		c.finalize(res, i, brk)
		c.mu.Unlock()
		t.done <- res
	}
}

// finalize folds a final disposition into the counters and emits the
// request's decision record. Called with mu held; the sink never
// blocks.
func (c *Coordinator) finalize(res serve.Result, shard int, brk serve.BreakerState) {
	switch res.Status {
	case serve.StatusOK:
		c.stats.OK++
	case serve.StatusShed:
		c.stats.Shed++
	case serve.StatusRejected:
		c.stats.Rejected++
	case serve.StatusExhausted:
		c.stats.Exhausted++
	default:
		c.stats.Failed++
	}
	c.sink.Offer(decisionFrom(c.seq, res, shard, 0, brk, c.cfg.Retry, runner.TierLabel(c.cfg.Tier)))
	c.seq++
}

// depth sums the queued tasks across shards.
func (c *Coordinator) depth() int {
	n := 0
	for _, sh := range c.shards {
		n += len(sh.queue)
	}
	return n
}

// Submit admits one request: route it by consistent hash to its
// shard, shed it on the fleet budget or the shard's full queue, or
// refuse it while draining; otherwise wait for the final Result. The
// returned error is non-nil only when the request produced no result
// for this caller (shed, draining, client gone). Every admitted or
// shed request emits exactly one decision record.
func (c *Coordinator) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	t := liveTask{ctx: ctx, req: req, done: make(chan serve.Result, 1)}
	owner := c.ring.Owner(RequestHash(req), c.alive)
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return serve.Result{}, serve.ErrDraining
	}
	var err error
	if c.depth() >= c.cfg.FleetBudget {
		err = ErrFleetOverloaded
	} else {
		select {
		case c.shards[owner].queue <- t:
		default:
			err = serve.ErrOverloaded
		}
	}
	if err != nil {
		c.finalize(serve.Result{Req: req, Status: serve.StatusShed, Err: err, Class: serve.Classify(err)}, -1, "")
		c.mu.Unlock()
		return serve.Result{}, err
	}
	c.stats.Accepted++
	if d := c.depth(); d > c.stats.HighWater {
		c.stats.HighWater = d
	}
	c.mu.Unlock()
	select {
	case res := <-t.done:
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
		for i, sh := range c.shards {
			if serr := sh.proc.Exec.SetBundle(v); serr != nil {
				err = fmt.Errorf("fleet: shard %d: %w", i, serr)
				for j := 0; j < i; j++ {
					// prev brought up on these shards before; reinstalling it
					// cannot fail a compile.
					c.shards[j].proc.Exec.SetBundle(prev)
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
	c.cfg.Logf("fleet: reload ok, serving bundle %s on %d shards", v.Digest(), len(c.shards))
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

// LiveShard is one shard's line in /stats and in the shutdown report.
// The live fleet never loses a shard, so unlike the soak's ShardSummary
// it carries no requeue or kill counts.
type LiveShard struct {
	Executed int `json:"executed"`
}

// ShutdownReport is the JSON document flushed on graceful drain.
type ShutdownReport struct {
	Uptime      time.Duration                   `json:"uptime_ns"`
	Stats       serve.Stats                     `json:"stats"`
	Shards      []LiveShard                     `json:"shards"`
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
		for _, sh := range c.shards {
			close(sh.queue)
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
	for i, sh := range c.shards {
		for _, t := range sh.proc.Brk.Transitions() {
			rep.Transitions = append(rep.Transitions, ShardTransition{Shard: i, Transition: t})
		}
	}
	return rep
}

// snapshot copies the fleet counters, the per-shard summaries, and
// each shard's breaker cells.
func (c *Coordinator) snapshot() (serve.Stats, []LiveShard, []map[string]serve.BreakerState) {
	breakers := make([]map[string]serve.BreakerState, len(c.shards))
	for i, sh := range c.shards {
		breakers[i] = sh.proc.Brk.Snapshot()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Depth = c.depth()
	return st, append([]LiveShard(nil), c.executed...), breakers
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
		draining, depth := c.draining, c.depth()
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
			Shards           []LiveShard                     `json:"shards"`
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
// circuit-open or draining, 502 failed/exhausted).
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req serve.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
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
