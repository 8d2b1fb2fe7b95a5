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
	"lmi/internal/fastsim"
	"lmi/internal/runner"
	"lmi/internal/serve"
)

// Config parameterises the live fleet coordinator.
type Config struct {
	// Shards is the number of simulated device workers (default 2 —
	// the coordinator exists to shard; a single-shard deployment
	// should use serve.Server directly).
	Shards int
	// Replicas is the ring's virtual nodes per shard (default 16).
	Replicas int
	// WorkersPerShard sizes each shard's execution pool (default 2).
	WorkersPerShard int
	// QueueCapacity bounds each shard's admission queue; a full queue
	// sheds with serve.ErrOverloaded (default 16).
	QueueCapacity int
	// FleetBudget bounds the total queued across shards; admission
	// beyond it sheds with ErrFleetOverloaded (default 3/4 of the
	// summed shard capacity).
	FleetBudget int
	// MaxRequeues bounds shard-death redistribution per request before
	// it is abandoned with ErrShardLost (default 3).
	MaxRequeues int
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
	// configured every bundle is refused.
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
		c.Shards = 2
	}
	if c.Replicas <= 0 {
		c.Replicas = 16
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 16
	}
	if c.FleetBudget <= 0 {
		c.FleetBudget = c.Shards * c.QueueCapacity * 3 / 4
	}
	if c.MaxRequeues <= 0 {
		c.MaxRequeues = 3
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

// errShardDead routes a task back to the coordinator when its shard
// died between routing and execution. Internal: Submit translates it
// into a requeue, never into a caller-visible error.
var errShardDead = errors.New("fleet: shard dead")

// liveResult is one task's reply: a final result, or a death notice
// that sends the request back for requeueing.
type liveResult struct {
	res  serve.Result
	died bool
}

type liveTask struct {
	ctx  context.Context
	req  serve.Request
	done chan liveResult
}

// liveShard is one shard of the live fleet: its own executor (and
// therefore its own warm compiled-program cache), admission queue,
// breaker (inside the Processor), and worker pool. A killed shard
// cancels its context — aborting in-flight attempts at the simulator
// watchdog — and answers every owned task with a death notice; a
// rejoined shard reuses the executor (the compile cache stays warm
// across restarts) behind a fresh breaker and queue.
type liveShard struct {
	id   int
	exec *serve.Executor

	mu     sync.Mutex
	alive  bool
	proc   *serve.Processor
	queue  chan liveTask
	cancel context.CancelFunc
	wg     *sync.WaitGroup
	stats  ShardSummary
}

// Stats is the fleet's counter snapshot.
type Stats struct {
	Accepted  uint64 `json:"accepted"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	OK        uint64 `json:"ok"`
	Failed    uint64 `json:"failed"`
	Exhausted uint64 `json:"exhausted"`
	Lost      uint64 `json:"lost"`
	Retries   uint64 `json:"retries"`
	Requeues  uint64 `json:"requeues"`
	Depth     int    `json:"queue_depth"`
}

// Coordinator is the live sharded serving driver.
type Coordinator struct {
	cfg    Config
	ring   *Ring
	shards []*liveShard
	sink   *Sink
	start  time.Time

	mu       sync.Mutex
	draining bool
	stats    Stats
	seq      int
	retired  []ShardTransition
	epochs   []int

	// reloadMu serializes Reload; verification and per-shard bring-up
	// run under it, never on the serving path. serving is the fleet's
	// current verified bundle (guarded by mu for readers).
	reloadMu   sync.Mutex
	serving    *bundle.Verified
	reloads    uint64
	lastReload string
}

// NewCoordinator builds the fleet: one executor, processor, queue, and
// worker pool per shard.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	logW := cfg.DecisionLog
	if logW == nil {
		logW = io.Discard
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Shards, cfg.Replicas),
		shards: make([]*liveShard, cfg.Shards),
		sink:   NewSink(logW, cfg.LogBuffer),
		start:  time.Now(),
		epochs: make([]int, cfg.Shards),
	}
	for i := range c.shards {
		exec, err := serve.NewExecutorTier(cfg.SMs, cfg.Tier)
		if err != nil {
			c.sink.Close()
			return nil, fmt.Errorf("fleet: shard %d executor: %w", i, err)
		}
		exec.SetSpecialize(cfg.Specialize)
		sh := &liveShard{id: i, exec: exec}
		c.shards[i] = sh
		c.startShard(sh)
	}
	return c, nil
}

// startShard (re)builds a shard's processor, queue, and worker pool.
func (c *Coordinator) startShard(sh *liveShard) {
	ctx, cancel := context.WithCancel(context.Background())
	proc := &serve.Processor{
		Exec:            sh.exec,
		Brk:             serve.NewBreaker(c.cfg.Breaker),
		Retry:           c.cfg.Retry,
		DefaultDeadline: c.cfg.DefaultDeadline,
		Logf:            c.cfg.Logf,
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
	}
	queue := make(chan liveTask, c.cfg.QueueCapacity)
	wg := &sync.WaitGroup{}
	sh.mu.Lock()
	sh.alive, sh.proc, sh.queue, sh.cancel, sh.wg = true, proc, queue, cancel, wg
	sh.mu.Unlock()
	wg.Add(c.cfg.WorkersPerShard)
	for w := 0; w < c.cfg.WorkersPerShard; w++ {
		go func() {
			defer wg.Done()
			for t := range queue {
				if ctx.Err() != nil && t.ctx.Err() == nil {
					// The shard died with this task still queued.
					t.done <- liveResult{died: true}
					continue
				}
				mctx, mcancel := context.WithCancel(t.ctx)
				stop := context.AfterFunc(ctx, mcancel)
				res := proc.Process(mctx, t.req)
				stop()
				mcancel()
				if ctx.Err() != nil && t.ctx.Err() == nil {
					// The shard died under the attempt; the partial result
					// is void and the request goes back to the fleet.
					t.done <- liveResult{died: true}
					continue
				}
				t.done <- liveResult{res: res}
			}
		}()
	}
}

// submit places a task on the shard's bounded queue without blocking.
func (sh *liveShard) submit(t liveTask) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.alive {
		return errShardDead
	}
	select {
	case sh.queue <- t:
		return nil
	default:
		return serve.ErrOverloaded
	}
}

// Kill simulates a shard death: in-flight attempts abort at the
// simulator watchdog, queued and running tasks are answered with death
// notices (the coordinator requeues them to survivors), and the
// shard's breaker transitions are retired into the fleet log.
func (c *Coordinator) Kill(shard int) {
	sh := c.shards[shard]
	sh.mu.Lock()
	if !sh.alive {
		sh.mu.Unlock()
		return
	}
	sh.alive = false
	sh.stats.Kills++
	queue, cancel, proc := sh.queue, sh.cancel, sh.proc
	sh.queue = nil
	sh.proc = nil // its transitions are retired below, once
	sh.mu.Unlock()

	cancel()
	close(queue) // no sender: submit checks alive under the same mutex

	c.mu.Lock()
	epoch := c.epochs[shard]
	c.epochs[shard] += 2 // dead epoch + next alive epoch, mirroring the soak
	for _, t := range proc.Brk.Transitions() {
		c.retired = append(c.retired, ShardTransition{Shard: shard, Epoch: epoch, Transition: t})
	}
	c.mu.Unlock()
	c.cfg.Logf("fleet: shard %d killed", shard)
}

// Rejoin restarts a killed shard with a fresh breaker and queue; its
// executor (and compiled-program cache) carries over. No-op while the
// shard is alive.
func (c *Coordinator) Rejoin(shard int) {
	sh := c.shards[shard]
	sh.mu.Lock()
	alive := sh.alive
	wg := sh.wg
	sh.mu.Unlock()
	if alive {
		return
	}
	wg.Wait() // the dead pool must finish answering its tasks first
	c.startShard(sh)
	c.cfg.Logf("fleet: shard %d rejoined", shard)
}

// Reload verifies b against the trusted key and, only on success,
// atomically swaps it in as every shard's program table. Verification
// and compiled-tier bring-up run off the serving path under reloadMu;
// each shard's swap is a single atomic store, and in-flight attempts
// finish on the table they loaded at dispatch. Dead shards get the new
// table too — a Rejoin racing the reload serves the current epoch, and
// can never resurrect programs from before it. Any verification or
// bring-up failure is a typed, fail-closed rejection: shards already
// swapped are rolled back to the previous bundle and the prior digest
// keeps serving everywhere.
func (c *Coordinator) Reload(b *bundle.Bundle) error {
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	v, err := bundle.Verify(b, c.cfg.BundlePub)
	if err == nil {
		c.mu.Lock()
		prev := c.serving
		c.mu.Unlock()
		for i, sh := range c.shards {
			if serr := sh.exec.SetBundle(v); serr != nil {
				err = fmt.Errorf("fleet: shard %d: %w", i, serr)
				for j := 0; j < i; j++ {
					// prev brought up on these shards before; reinstalling it
					// cannot fail a compile.
					c.shards[j].exec.SetBundle(prev)
				}
				break
			}
		}
		if err == nil {
			c.mu.Lock()
			c.serving = v
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	c.reloads++
	if err != nil {
		c.lastReload = err.Error()
	} else {
		c.lastReload = "ok"
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

// ReloadStats returns the reload attempt count and the last reload's
// status ("" before the first attempt).
func (c *Coordinator) ReloadStats() (uint64, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reloads, c.lastReload
}

// Alive reports each shard's liveness.
func (c *Coordinator) Alive() []bool {
	alive := make([]bool, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		alive[i] = sh.alive
		sh.mu.Unlock()
	}
	return alive
}

// depth sums the queued tasks across alive shards.
func (c *Coordinator) depth() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.alive {
			n += len(sh.queue)
		}
		sh.mu.Unlock()
	}
	return n
}

// count folds a final disposition into the fleet counters.
func (c *Coordinator) count(st serve.Status) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch st {
	case serve.StatusOK:
		c.stats.OK++
	case serve.StatusShed:
		c.stats.Shed++
	case serve.StatusRejected:
		c.stats.Rejected++
	case serve.StatusExhausted:
		c.stats.Exhausted++
	case StatusLost:
		c.stats.Lost++
	default:
		c.stats.Failed++
	}
}

// decide emits the request's decision record.
func (c *Coordinator) decide(res serve.Result, shard, requeues int) {
	var brkState serve.BreakerState
	if shard >= 0 {
		sh := c.shards[shard]
		sh.mu.Lock()
		if sh.alive {
			brkState = sh.proc.Brk.State(res.Req.Key())
		}
		sh.mu.Unlock()
	}
	c.mu.Lock()
	seq := c.seq
	c.seq++
	c.mu.Unlock()
	c.sink.Offer(decisionFrom(seq, res, shard, requeues, brkState, c.cfg.Retry, runner.TierLabel(c.cfg.Tier)))
}

// Submit admits one request: route by consistent hash to an alive
// shard, shed on the fleet budget or the shard's queue, requeue to
// survivors when the shard dies underneath it (bounded by
// MaxRequeues), and return the final Result. The returned error is
// non-nil only when the request never produced a result (shed, lost,
// draining, client gone); every disposition emits a decision record.
func (c *Coordinator) Submit(ctx context.Context, req serve.Request) (serve.Result, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return serve.Result{}, serve.ErrDraining
	}
	c.stats.Accepted++
	c.mu.Unlock()

	h := RequestHash(req)
	requeues := 0
	fail := func(st serve.Status, err error) (serve.Result, error) {
		res := serve.Result{Req: req, Status: st, Err: err, Class: serve.Classify(err)}
		c.count(st)
		c.decide(res, -1, requeues)
		return serve.Result{}, err
	}
	for {
		owner := c.ring.Owner(h, c.Alive())
		if owner < 0 {
			return fail(StatusLost, fmt.Errorf("%w: no shard alive", ErrShardLost))
		}
		if c.depth() >= c.cfg.FleetBudget {
			return fail(serve.StatusShed, ErrFleetOverloaded)
		}
		t := liveTask{ctx: ctx, req: req, done: make(chan liveResult, 1)}
		switch err := c.shards[owner].submit(t); {
		case errors.Is(err, errShardDead):
			continue // raced a death; the ring will route around it
		case err != nil:
			return fail(serve.StatusShed, err)
		}
		var lr liveResult
		select {
		case lr = <-t.done:
		case <-ctx.Done():
			return serve.Result{}, fmt.Errorf("fleet: client gone: %w", ctx.Err())
		}
		if lr.died {
			requeues++
			c.mu.Lock()
			c.stats.Requeues++
			c.mu.Unlock()
			c.shards[owner].mu.Lock()
			c.shards[owner].stats.Requeued++
			c.shards[owner].mu.Unlock()
			if requeues > c.cfg.MaxRequeues {
				return fail(StatusLost,
					fmt.Errorf("%w: %d requeues after repeated shard deaths", ErrShardLost, requeues))
			}
			continue
		}
		c.shards[owner].mu.Lock()
		c.shards[owner].stats.Executed++
		c.shards[owner].mu.Unlock()
		c.count(lr.res.Status)
		c.decide(lr.res, owner, requeues)
		return lr.res, nil
	}
}

// ShutdownReport is the JSON document flushed on graceful drain.
type ShutdownReport struct {
	Uptime      time.Duration                   `json:"uptime_ns"`
	Stats       Stats                           `json:"stats"`
	Shards      []ShardSummary                  `json:"shards"`
	Breakers    []map[string]serve.BreakerState `json:"breakers"`
	Transitions []ShardTransition               `json:"breaker_transitions"`
	Decisions   SinkStats                       `json:"decisions"`
}

// Shutdown drains gracefully: stop accepting, let every alive shard
// finish its queue, retire the breakers, close the decision sink, and
// return the report. ctx bounds the wait.
func (c *Coordinator) Shutdown(ctx context.Context) ShutdownReport {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.mu.Unlock()

	rep := ShutdownReport{
		Shards:   make([]ShardSummary, len(c.shards)),
		Breakers: make([]map[string]serve.BreakerState, len(c.shards)),
	}
	if !already {
		done := make(chan struct{})
		go func() {
			for _, sh := range c.shards {
				sh.mu.Lock()
				alive, queue, wg := sh.alive, sh.queue, sh.wg
				if alive {
					sh.queue = nil
					sh.alive = false
				}
				sh.mu.Unlock()
				if alive {
					close(queue)
				}
				if wg != nil {
					wg.Wait()
				}
			}
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			c.cfg.Logf("fleet: drain deadline expired with work in flight")
		}
	}
	for i, sh := range c.shards {
		sh.mu.Lock()
		rep.Shards[i] = sh.stats
		proc := sh.proc
		sh.mu.Unlock()
		if proc != nil {
			rep.Breakers[i] = proc.Brk.Snapshot()
			if !already { // Kill retires its shard's transitions itself
				c.mu.Lock()
				epoch := c.epochs[i]
				for _, t := range proc.Brk.Transitions() {
					c.retired = append(c.retired, ShardTransition{Shard: i, Epoch: epoch, Transition: t})
				}
				c.mu.Unlock()
			}
		}
	}
	c.sink.Close()
	c.mu.Lock()
	rep.Uptime = time.Since(c.start)
	rep.Stats = c.stats
	rep.Stats.Depth = 0
	rep.Transitions = append([]ShardTransition(nil), c.retired...)
	c.mu.Unlock()
	rep.Decisions = c.sink.Stats()
	return rep
}

// Stats snapshots the fleet counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Depth = c.depth()
	return st
}

// Draining reports whether graceful shutdown has begun.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Handler returns the HTTP surface: POST /run, GET /healthz, /readyz,
// /stats — the same shape as the single-shard server, plus per-shard
// detail under /stats.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", c.handleRun)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		alive := 0
		for _, a := range c.Alive() {
			if a {
				alive++
			}
		}
		switch {
		case c.Draining():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case alive == 0:
			http.Error(w, "no shard alive", http.StatusServiceUnavailable)
		case c.depth() >= c.cfg.FleetBudget:
			http.Error(w, fmt.Sprintf("fleet depth %d at budget %d", c.depth(), c.cfg.FleetBudget),
				http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ready")
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		shards := make([]ShardSummary, len(c.shards))
		breakers := make([]map[string]serve.BreakerState, len(c.shards))
		for i, sh := range c.shards {
			sh.mu.Lock()
			shards[i] = sh.stats
			if sh.alive {
				breakers[i] = sh.proc.Brk.Snapshot()
			}
			sh.mu.Unlock()
		}
		reloads, lastReload := c.ReloadStats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Uptime   time.Duration `json:"uptime_ns"`
			Tier     string        `json:"tier,omitempty"`
			Draining bool          `json:"draining"`
			// The bundle fields are omitted entirely when the fleet is
			// not bundle-backed and no reload was ever attempted.
			BundleDigest     string                          `json:"bundle_digest,omitempty"`
			ReloadCount      uint64                          `json:"reload_count,omitempty"`
			LastReloadStatus string                          `json:"last_reload_status,omitempty"`
			Alive            []bool                          `json:"alive"`
			Stats            Stats                           `json:"stats"`
			Shards           []ShardSummary                  `json:"shards"`
			Breakers         []map[string]serve.BreakerState `json:"breakers"`
			Decisions        SinkStats                       `json:"decisions"`
		}{time.Since(c.start), runner.TierLabel(c.cfg.Tier), c.Draining(),
			c.BundleDigest(), reloads, lastReload, c.Alive(),
			c.Stats(), shards, breakers, c.sink.Stats()})
	})
	mux.HandleFunc("/reload", c.handleReload)
	return mux
}

// handleReload is POST /reload: decode a bundle from the body, verify,
// and swap fleet-wide. A rejected bundle answers 422 with the typed
// reason; the previous table keeps serving on every shard.
func (c *Coordinator) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	b, err := bundle.Decode(r.Body)
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

// handleRun is POST /run with the same status mapping as the
// single-shard server, plus 503 for lost requests.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req serve.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		serve.WriteResult(w, http.StatusBadRequest, serve.Result{
			Status: serve.StatusFailed, Class: serve.ClassTerminal,
			Err: fmt.Errorf("%w: %v", serve.ErrBadRequest, err),
		})
		return
	}
	res, err := c.Submit(r.Context(), req)
	if err != nil {
		code := http.StatusServiceUnavailable
		st := serve.StatusShed
		switch {
		case errors.Is(err, serve.ErrOverloaded), errors.Is(err, ErrFleetOverloaded):
			code = http.StatusTooManyRequests
		case errors.Is(err, ErrShardLost):
			st = StatusLost
		}
		serve.WriteResult(w, code, serve.Result{Status: st, Class: serve.ClassTerminal, Err: err})
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
	serve.WriteResult(w, code, res)
}
