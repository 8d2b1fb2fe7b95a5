package fleet

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/runner"
	"lmi/internal/serve"
)

// Soak-scale serving shape: the fleet soak's ring, virtual servers,
// queues, requeue bound and arrival pacing are fixed; only the stream
// (seed, length) and the fleet size vary.
const (
	// soakServers is each shard's virtual concurrency and
	// soakQueueCapacity bounds each shard's admission queue.
	soakServers       = 2
	soakQueueCapacity = 8
	// soakMaxRequeues bounds shard-death redistribution per request;
	// one more death than this finalizes the request as lost with
	// ErrShardLost.
	soakMaxRequeues = 3
	// soakArrivalEvery is the base inter-arrival gap; scripted bursts
	// arrive at a fifth of it.
	soakArrivalEvery = 60 * time.Microsecond
)

// SoakConfig parameterises the fleet soak: a seeded request stream
// replayed through the sharded serving state machines on a virtual
// timeline, under a scripted schedule of shard kills, rejoins, and
// burst overloads.
type SoakConfig struct {
	// Seed derives the whole run: request mix, arrival pattern,
	// per-request seeds, deadlines, retry jitter, and the fault plan.
	Seed uint64
	// Requests is the stream length (default 1000; the check gate runs
	// 100000).
	Requests int
	// Shards is the fleet size (default 3).
	Shards int
	// Workers sizes the precompute pool (<= 0 = LMI_JOBS / GOMAXPROCS).
	// It affects wall-clock time only, never a byte of the report.
	Workers int
	// SMs sizes the simulated device (default 1).
	SMs int
	// Tier selects the execution tier attempts simulate on.
	Tier fastsim.Tier
	// Breaker and Retry are the per-shard serving policies.
	Breaker serve.BreakerConfig
	Retry   serve.RetryConfig
	// DisableBundles turns off the signed-bundle reload campaign. By
	// default the soak serves a bench trio from signed bundles and
	// scripts genuine reloads (mid-burst, mid-shard-kill) plus one
	// tampered reload per chaos bundle-tamper kind.
	DisableBundles bool
}

// fleetBudget bounds the total queued across all shards; admission
// beyond it sheds with ErrFleetOverloaded even when the owner shard has
// room. It is 3/4 of the summed shard capacity, so a correlated burst
// trips it before every queue is full.
func (sc SoakConfig) fleetBudget() int { return sc.Shards * soakQueueCapacity * 3 / 4 }

// withDefaults fills zero fields with soak-scale values.
func (sc SoakConfig) withDefaults() SoakConfig {
	if sc.Requests <= 0 {
		sc.Requests = 1000
	}
	if sc.Shards <= 0 {
		sc.Shards = 3
	}
	if sc.SMs <= 0 {
		sc.SMs = 1
	}
	if sc.Breaker.Cooldown <= 0 {
		sc.Breaker.Cooldown = 1500 * time.Microsecond
	}
	sc.Breaker = sc.Breaker.WithDefaults()
	if sc.Retry.BackoffBase <= 0 {
		sc.Retry.BackoffBase = 2 * time.Millisecond
	}
	if sc.Retry.BackoffMax <= 0 {
		sc.Retry.BackoffMax = 16 * time.Millisecond
	}
	sc.Retry = sc.Retry.WithDefaults()
	return sc
}

// genStream builds the seeded request stream. Arrival pacing follows
// the scripted burst windows: inside a BurstOverload window the
// inter-arrival gap divides by five, which is what drives the shard
// queues into their shed thresholds while the fault plan may also have
// a shard down. Content mixes mechanisms and injection kinds with
// occasional same-cell runs (the pattern that trips a breaker) and
// occasional tight per-attempt deadlines (the pattern that exercises
// retries). With bundles enabled, about an eighth of the stream is
// bench requests for the bundle-served trio — deadline-free, so their
// dispositions depend only on admission and shard survival, and every
// executed one must carry its dispatch epoch's bundle digest.
func genStream(cfg SoakConfig, inj *chaos.Injector, plan []chaos.ShardFault, bench bool) ([]serve.Request, []time.Duration) {
	gseed := chaos.MixSeed(cfg.Seed, 0xF1EE75)
	n := uint64(0)
	next := func() uint64 { n++; return chaos.MixSeed(gseed, n) }
	intn := func(m int) int { return int(next() % uint64(m)) }

	var bursts []chaos.ShardFault
	for _, f := range plan {
		if f.Kind == chaos.BurstOverload {
			bursts = append(bursts, f)
		}
	}
	inBurst := func(t time.Duration) bool {
		for _, b := range bursts {
			if t >= b.At && t < b.At+b.Dur {
				return true
			}
		}
		return false
	}

	mechs := inj.Mechanisms()
	reqs := make([]serve.Request, cfg.Requests)
	arrivals := make([]time.Duration, cfg.Requests)
	var now time.Duration
	runLeft := 0
	var runMech string
	var runKind chaos.Kind
	for i := range reqs {
		gap := soakArrivalEvery
		if inBurst(now) {
			gap = soakArrivalEvery / 5
		}
		now += gap
		if bench && runLeft == 0 && intn(8) == 0 {
			w := soakBundleWorkloads[intn(len(soakBundleWorkloads))]
			reqs[i] = serve.Request{Workload: w, Mechanism: "lmi", Seed: next()}
			arrivals[i] = now
			continue
		}
		var mech string
		var kind chaos.Kind
		switch {
		case runLeft > 0:
			mech, kind = runMech, runKind
			runLeft--
		case intn(6) == 0:
			runMech = mechs[intn(len(mechs))]
			kinds := inj.EligibleKinds(runMech)
			runKind = kinds[intn(len(kinds))]
			runLeft = 6 + intn(5)
			mech, kind = runMech, runKind
		default:
			mech = mechs[intn(len(mechs))]
			kinds := inj.EligibleKinds(mech)
			if intn(3) == 0 {
				kind = chaos.KindControl
			} else {
				kind = kinds[intn(len(kinds))]
			}
		}
		req := serve.Request{Mechanism: mech, Kind: kind, Seed: next()}
		if intn(4) == 0 {
			req.Deadline = 70*time.Microsecond + time.Duration(intn(4))*10*time.Microsecond
		}
		reqs[i] = req
		arrivals[i] = now
	}
	return reqs, arrivals
}

// Event kinds on the virtual timeline.
const (
	evArrive = iota // request (or retry, or requeued attempt) seeks admission
	evFinish        // an attempt releases its shard's virtual server
	evKill          // scripted shard death
	evRejoin        // scripted shard recovery
	evReload        // scripted bundle reload (genuine or tampered)
)

// soakEvent is one scheduled occurrence on the virtual timeline.
type soakEvent struct {
	at      time.Duration
	seq     int // tie-break: push order — a total, deterministic order
	kind    int
	req     int
	attempt int
	shard   int
	epoch   int    // shard epoch the attempt was dispatched in (evFinish)
	token   uint64 // breaker probe token of the running attempt (evFinish)
	rkind   string // bundle-tamper kind of an evReload ("" = genuine)
}

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
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// qent is one queued (request, attempt) on a shard.
type qent struct{ req, attempt int }

// shardSim is one shard's replay state.
type shardSim struct {
	alive    bool
	epoch    int // bumped on every kill and rejoin; stale events compare it
	free     int
	queue    []qent
	inflight map[int]int // req -> attempt index currently executing here
	brk      *serve.Breaker
	executed int // attempts completed on this shard
	requeued int // entries this shard's deaths pushed back to the fleet
}

// ShardTransition tags a breaker transition with the shard and alive
// epoch it happened in.
type ShardTransition struct {
	Shard int `json:"shard"`
	Epoch int `json:"epoch"`
	serve.Transition
}

// ShardSummary is one shard's report line.
type ShardSummary struct {
	Executed int `json:"executed"`
	Requeued int `json:"requeued"`
	Kills    int `json:"kills"`
}

// SoakReport is the deterministic output of one fleet soak. No field
// depends on wall-clock time or worker count.
type SoakReport struct {
	Config      SoakConfig
	Plan        []chaos.ShardFault
	Results     []serve.Result
	Shards      []ShardSummary
	Transitions []ShardTransition
	Counts      map[serve.Status]int
	Outcomes    map[chaos.Outcome]int
	Retries     int
	Requeues    int
	HighWater   int // max total queued across the fleet
	Makespan    time.Duration
	Decisions   SinkStats
	// BundleDigests are the good (signed, verified) bundle versions in
	// version order; Reloads is the reload campaign log. Both empty when
	// bundles are disabled.
	BundleDigests []string
	Reloads       []ReloadRecord
}

// FleetSoak runs the sharded chaos soak: generate the seeded stream
// and fault plan, precompute attempt outcomes in parallel (each a pure
// function of its seed), then replay the fleet dynamics — consistent-
// hash admission, per-shard queues and breakers, scripted shard death
// with deterministic requeue, rejoin rebalancing, fleet-budget
// shedding — single-threaded on the virtual timeline. Every request's
// decision record is offered to a sink over decisionLog (nil discards
// the log); the soak sizes the sink to the stream so a healthy run
// drops nothing and the log bytes are replay-deterministic.
func FleetSoak(ctx context.Context, cfg SoakConfig, decisionLog io.Writer) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	exec, err := serve.NewExecutorTier(cfg.SMs, cfg.Tier)
	if err != nil {
		return nil, fmt.Errorf("fleet soak: building executor: %w", err)
	}
	horizon := soakArrivalEvery * time.Duration(cfg.Requests)
	plan := chaos.ShardFaultPlan(cfg.Seed, cfg.Shards, horizon)
	var sb *soakBundles
	if !cfg.DisableBundles {
		if sb, err = prepareSoakBundles(ctx, cfg, exec); err != nil {
			return nil, fmt.Errorf("fleet soak: bundles: %w", err)
		}
	}
	reqs, arrivals := genStream(cfg, exec.Injector(), plan, sb != nil)
	// Chaos attempts precompute in parallel waves; bundle-served bench
	// attempts are instead derived at dispatch time from the per-
	// (workload, version) outcomes, because their result depends on the
	// bundle epoch serving at that instant.
	var chaosIdx []int
	creqs := make([]serve.Request, 0, len(reqs))
	for i := range reqs {
		if reqs[i].Workload == "" {
			chaosIdx = append(chaosIdx, i)
			creqs = append(creqs, reqs[i])
		}
	}
	catt, err := serve.PrecomputeAttempts(ctx, cfg.Workers, cfg.Retry, exec, creqs)
	if err != nil {
		return nil, fmt.Errorf("fleet soak: precompute: %w", err)
	}
	attempts := make([][]serve.AttemptRes, len(reqs))
	for i, idx := range chaosIdx {
		attempts[idx] = catt[i]
	}

	if decisionLog == nil {
		decisionLog = io.Discard
	}
	sink := NewSink(decisionLog, cfg.Requests+8)
	tier := runner.TierLabel(cfg.Tier)

	rep := &SoakReport{
		Config:   cfg,
		Plan:     plan,
		Results:  make([]serve.Result, len(reqs)),
		Shards:   make([]ShardSummary, cfg.Shards),
		Counts:   make(map[serve.Status]int),
		Outcomes: make(map[chaos.Outcome]int),
	}
	if sb != nil {
		rep.BundleDigests = sb.digests
	}

	ring := NewRing(cfg.Shards, ringReplicas)
	budget := cfg.fleetBudget()
	hashes := make([]uint64, len(reqs))
	for i := range reqs {
		hashes[i] = RequestHash(reqs[i])
	}
	shards := make([]*shardSim, cfg.Shards)
	alive := make([]bool, cfg.Shards)
	for s := range shards {
		shards[s] = &shardSim{
			alive: true, free: soakServers,
			inflight: make(map[int]int),
			brk:      serve.NewBreaker(cfg.Breaker),
		}
		alive[s] = true
	}
	hops := make([]int, len(reqs)) // shard-death requeues per request

	var (
		h           eventHeap
		seq         int
		now         time.Duration
		queuedTotal int
		servingVer  int // index into sb.digests of the serving bundle
	)
	push := func(at time.Duration, e soakEvent) {
		e.at, e.seq = at, seq
		seq++
		heap.Push(&h, e)
	}
	retire := func(s int) {
		sh := shards[s]
		if sh.brk == nil {
			return
		}
		for _, t := range sh.brk.Transitions() {
			rep.Transitions = append(rep.Transitions, ShardTransition{Shard: s, Epoch: sh.epoch, Transition: t})
		}
		sh.brk = nil
	}
	finalize := func(req, shard int, st serve.Status, attemptsMade int, ferr error) {
		ar := serve.Outcome{}
		if attemptsMade > 0 {
			ar = attempts[req][attemptsMade-1].Out
		}
		res := serve.Result{
			Req:       reqs[req],
			Status:    st,
			Attempts:  attemptsMade,
			Err:       ferr,
			Class:     serve.Classify(ferr),
			Outcome:   ar.Outcome,
			Cycles:    ar.Cycles,
			ECChecked: ar.ECChecked,
			ECElided:  ar.ECElided,
			Faults:    ar.Faults,
			Detail:    ar.Detail,

			BundleDigest: ar.BundleDigest,
		}
		rep.Results[req] = res
		rep.Counts[st]++
		if ar.Outcome != "" {
			rep.Outcomes[ar.Outcome]++
		}
		var brkState serve.BreakerState
		if shard >= 0 && shards[shard].brk != nil {
			brkState = shards[shard].brk.State(reqs[req].Key())
		}
		sink.Offer(decisionFrom(req, res, shard, hops[req], brkState, cfg.Retry, tier))
	}
	// requeue re-admits a (request, attempt) displaced by a shard
	// death. The attempt index is preserved: the precomputed outcome is
	// a pure function of (request, attempt seed), so re-running attempt
	// k on a different shard consumes the same table entry and the
	// replay stays deterministic.
	requeue := func(req, attempt int) {
		hops[req]++
		if hops[req] > soakMaxRequeues {
			finalize(req, -1, StatusLost, attempt,
				fmt.Errorf("%w: %d requeues after repeated shard deaths", ErrShardLost, hops[req]))
			return
		}
		rep.Requeues++
		push(now, soakEvent{kind: evArrive, req: req, attempt: attempt})
	}
	dispatch := func(s int) {
		sh := shards[s]
		if !sh.alive {
			return
		}
		for sh.free > 0 && len(sh.queue) > 0 {
			q := sh.queue[0]
			sh.queue = sh.queue[1:]
			queuedTotal--
			ok, token := sh.brk.Allow(reqs[q.req].Key(), now)
			if !ok {
				finalize(q.req, s, serve.StatusRejected, q.attempt, serve.ErrCircuitOpen)
				continue
			}
			if sb != nil && reqs[q.req].Workload != "" {
				// A bundle-served attempt binds to the epoch serving at its
				// dispatch instant: the attempt (outcome, digest, duration)
				// derives from that version's table and stays bound even if
				// a reload swaps mid-flight. A shard-death requeue
				// re-derives on re-dispatch, under whatever is serving then.
				ar := serve.BenchAttempt(reqs[q.req], q.attempt, sb.benchOut[reqs[q.req].Workload][servingVer])
				for len(attempts[q.req]) <= q.attempt {
					attempts[q.req] = append(attempts[q.req], serve.AttemptRes{})
				}
				attempts[q.req][q.attempt] = ar
			}
			sh.free--
			sh.inflight[q.req] = q.attempt
			push(now+attempts[q.req][q.attempt].Dur,
				soakEvent{kind: evFinish, req: q.req, attempt: q.attempt, shard: s, epoch: sh.epoch, token: token})
		}
	}
	dispatchAll := func() {
		for s := range shards {
			dispatch(s)
		}
	}

	// Scripted fleet faults enter the timeline first (lower seq than
	// same-instant arrivals: a kill at t pre-empts work arriving at t),
	// then the reload campaign, then the request stream.
	for _, f := range plan {
		switch f.Kind {
		case chaos.ShardKill:
			push(f.At, soakEvent{kind: evKill, shard: f.Shard})
		case chaos.ShardRejoin:
			push(f.At, soakEvent{kind: evRejoin, shard: f.Shard})
		}
	}
	if sb != nil {
		for _, at := range genuineReloadTimes(plan, horizon) {
			push(at, soakEvent{kind: evReload})
		}
		kinds := bundle.TamperKinds()
		for i, k := range kinds {
			push(horizon*time.Duration(2*i+1)/time.Duration(2*len(kinds)),
				soakEvent{kind: evReload, rkind: k})
		}
	}
	for i := range reqs {
		push(arrivals[i], soakEvent{kind: evArrive, req: i})
	}
	heap.Init(&h)

	for h.Len() > 0 {
		e := heap.Pop(&h).(soakEvent)
		now = e.at
		switch e.kind {
		case evArrive:
			owner := ring.Owner(hashes[e.req], alive)
			if owner < 0 {
				finalize(e.req, -1, StatusLost,
					e.attempt, fmt.Errorf("%w: no shard alive", ErrShardLost))
				break
			}
			if queuedTotal >= budget {
				finalize(e.req, -1, serve.StatusShed, e.attempt, ErrFleetOverloaded)
				break
			}
			sh := shards[owner]
			if len(sh.queue) >= soakQueueCapacity {
				finalize(e.req, -1, serve.StatusShed, e.attempt, serve.ErrOverloaded)
				break
			}
			sh.queue = append(sh.queue, qent{req: e.req, attempt: e.attempt})
			queuedTotal++
			if queuedTotal > rep.HighWater {
				rep.HighWater = queuedTotal
			}
		case evFinish:
			sh := shards[e.shard]
			if e.epoch != sh.epoch {
				break // the shard died under this attempt; the kill requeued it
			}
			sh.free++
			sh.executed++
			delete(sh.inflight, e.req)
			ar := attempts[e.req][e.attempt]
			sh.brk.Record(reqs[e.req].Key(), now, e.token, ar.Out.Err == nil)
			switch cls := serve.Classify(ar.Out.Err); {
			case cls == serve.ClassOK:
				finalize(e.req, e.shard, serve.StatusOK, e.attempt+1, nil)
			case cls == serve.ClassRetryable && e.attempt+1 < cfg.Retry.MaxAttempts:
				rep.Retries++
				push(now+cfg.Retry.Delay(reqs[e.req].Seed, e.attempt),
					soakEvent{kind: evArrive, req: e.req, attempt: e.attempt + 1})
			case cls == serve.ClassRetryable:
				finalize(e.req, e.shard, serve.StatusExhausted, e.attempt+1, ar.Out.Err)
			default:
				finalize(e.req, e.shard, serve.StatusFailed, e.attempt+1, ar.Out.Err)
			}
		case evKill:
			sh := shards[e.shard]
			if !sh.alive {
				break
			}
			retire(e.shard)
			sh.alive, alive[e.shard] = false, false
			sh.epoch++
			rep.Shards[e.shard].Kills++
			// Deterministic redistribution: in-flight attempts first (in
			// request order — map iteration is not deterministic, so walk
			// the request index space), then the queue in FIFO order.
			// Every displaced entry re-arrives at the kill instant and the
			// ring routes it to a surviving shard.
			for req := 0; req < len(reqs); req++ {
				attempt, ok := sh.inflight[req]
				if !ok {
					continue
				}
				delete(sh.inflight, req)
				sh.requeued++
				requeue(req, attempt)
			}
			for _, q := range sh.queue {
				queuedTotal--
				sh.requeued++
				requeue(q.req, q.attempt)
			}
			sh.queue, sh.free = nil, 0
		case evReload:
			if e.rkind == "" {
				// A genuine reload verified off-path: the swap is the whole
				// on-path cost, and it applies to every shard at once — dead
				// ones included, so a rejoin can only come back on the new
				// epoch. In-flight attempts keep the version they dispatched
				// on (their AttemptRes was bound at dispatch).
				servingVer = 1 - servingVer
				rep.Reloads = append(rep.Reloads, ReloadRecord{
					At: now, Kind: "genuine", Digest: sb.digests[servingVer],
					Status: "ok", Serving: sb.digests[servingVer],
				})
				break
			}
			// A tampered reload: rejected at Verify, before any lane could
			// execute from it. The serving table is untouched.
			tr := sb.tampered[e.rkind]
			rep.Reloads = append(rep.Reloads, ReloadRecord{
				At: now, Kind: e.rkind, Digest: tr.digest,
				Status: "rejected", Reason: string(tr.reason), Error: tr.err.Error(),
				Serving: sb.digests[servingVer],
			})
		case evRejoin:
			sh := shards[e.shard]
			if sh.alive {
				break
			}
			sh.alive, alive[e.shard] = true, true
			sh.epoch++
			sh.free = soakServers
			sh.brk = serve.NewBreaker(cfg.Breaker) // cold cells: the cohort that opened them is gone
			// Rebalance: queued entries whose ring owner is now the
			// rejoined shard migrate back, preserving each queue's order.
			for s, o := range shards {
				if s == e.shard || !o.alive {
					continue
				}
				kept := o.queue[:0]
				for _, q := range o.queue {
					if ring.Owner(hashes[q.req], alive) == e.shard {
						sh.queue = append(sh.queue, q)
					} else {
						kept = append(kept, q)
					}
				}
				o.queue = kept
			}
		}
		dispatchAll()
	}
	rep.Makespan = now
	for s := range shards {
		retire(s)
		rep.Shards[s].Executed = shards[s].executed
		rep.Shards[s].Requeued = shards[s].requeued
	}
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("fleet soak: decision log: %w", err)
	}
	rep.Decisions = sink.Stats()
	return rep, nil
}
