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

// Soak-scale serving shape: the fleet soak's virtual servers, queues
// and arrival pacing are fixed; only the stream (seed, length) and the
// fleet size vary.
const (
	// soakServers is each shard's virtual concurrency and
	// soakQueueCapacity bounds each shard's admission queue.
	soakServers       = 2
	soakQueueCapacity = 8
	// soakArrivalEvery is the base inter-arrival gap; scripted bursts
	// arrive at a fifth of it.
	soakArrivalEvery = 60 * time.Microsecond
)

// SoakConfig parameterises the fleet soak: a seeded request stream
// replayed through the fleet's serving state machine on a virtual
// timeline, under a scripted schedule of burst overloads.
type SoakConfig struct {
	// Seed derives the whole run: request mix, arrival pattern,
	// per-request seeds, deadlines, retry jitter, and the burst plan.
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
	// scripts genuine reloads (mid-burst and at two thirds of the
	// horizon) plus one tampered reload per chaos bundle-tamper kind.
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
	// A retry's backoff holds its virtual server, so the schedule stays
	// on the scale of a virtual attempt (50-150µs plus the kernel).
	if sc.Retry.BackoffBase <= 0 {
		sc.Retry.BackoffBase = 200 * time.Microsecond
	}
	if sc.Retry.BackoffMax <= 0 {
		sc.Retry.BackoffMax = 1600 * time.Microsecond
	}
	sc.Retry = sc.Retry.WithDefaults()
	return sc
}

// genStream builds the seeded request stream. Arrival pacing follows
// the scripted burst windows: inside a burst the inter-arrival gap
// divides by five, which is what drives the shard queues into their
// shed thresholds. Content mixes mechanisms and injection kinds with
// occasional same-cell runs (the pattern that trips a breaker) and
// occasional tight per-attempt deadlines (the pattern that exercises
// retries). With bundles enabled, about an eighth of the stream is
// bench requests for the bundle-served trio — deadline-free, so their
// dispositions depend only on admission and the breaker, and every
// executed one must carry the digest of the bundle serving when its
// attempt started.
func genStream(cfg SoakConfig, inj *chaos.Injector, plan []chaos.ShardFault, bench bool) ([]serve.Request, []time.Duration) {
	gseed := chaos.MixSeed(cfg.Seed, 0xF1EE75)
	n := uint64(0)
	next := func() uint64 { n++; return chaos.MixSeed(gseed, n) }
	intn := func(m int) int { return int(next() % uint64(m)) }

	inBurst := func(t time.Duration) bool {
		for _, b := range plan {
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
	evArrive = iota // a request seeks admission
	evStart         // a held server starts a request's retry after its backoff
	evFinish        // an attempt ends
	evReload        // a scripted bundle reload (genuine or tampered)
)

// soakEvent is one scheduled occurrence on the virtual timeline.
type soakEvent struct {
	at    time.Duration
	seq   int // tie-break: push order — a total, deterministic order
	kind  int
	req   int
	shard int
	out   serve.Outcome // evFinish: the attempt's outcome, bound at its start
	rkind string        // evReload: the bundle-tamper kind ("" = genuine)
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

// replay is the soak's driver of the serving machine: request i of reqs
// arrives at arrivals[i], each shard has servers virtual servers, and
// the reload events fire at their times. A server takes a request off
// its shard's queue, runs the attempts the machine starts — attempt
// binds each at its start instant — and stays held through every
// backoff until the request's final disposition, as a live worker does.
// arrivals must not decrease: arrivals are pushed in stream order and
// ties break by push order, so the machine's admission order is the
// stream index. It returns the virtual makespan.
func replay(m *machine, servers int, reqs []serve.Request, arrivals []time.Duration, reloads []soakEvent,
	attempt func(req, a int) serve.AttemptRes, reload func(e soakEvent, now time.Duration)) time.Duration {
	var (
		h   eventHeap
		seq int
		now time.Duration
	)
	push := func(at time.Duration, e soakEvent) {
		e.at, e.seq = at, seq
		seq++
		heap.Push(&h, e)
	}
	free := make([]int, m.shards)
	start := func(req, shard int) {
		a, ok := m.Start(req, now)
		if !ok {
			free[shard]++
			return
		}
		ar := attempt(req, a)
		push(now+ar.Dur, soakEvent{kind: evFinish, req: req, shard: shard, out: ar.Out})
	}
	for s := range free {
		free[s] = servers
	}
	// Reloads enter the timeline first: a reload at t lands before work
	// arriving at t.
	for _, e := range reloads {
		push(e.at, e)
	}
	for i := range reqs {
		push(arrivals[i], soakEvent{kind: evArrive, req: i})
	}
	for h.Len() > 0 {
		e := heap.Pop(&h).(soakEvent)
		now = e.at
		switch e.kind {
		case evArrive:
			m.Admit(reqs[e.req]) // a shed is finalized by the machine
		case evStart:
			start(e.req, e.shard)
		case evFinish:
			if backoff, retry := m.Finish(e.req, now, e.out, nil); retry {
				push(now+backoff, soakEvent{kind: evStart, req: e.req, shard: e.shard})
			} else {
				free[e.shard]++
			}
		case evReload:
			reload(e, now)
		}
		for s := range free {
			for free[s] > 0 {
				req, ok := m.Dequeue(s)
				if !ok {
					break
				}
				free[s]--
				start(req, s)
			}
		}
	}
	return now
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
	Retries     uint64
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
// and burst plan, precompute attempt outcomes in parallel (each a pure
// function of its seed), then replay them single-threaded on the
// virtual timeline through the fleet's serving machine — the same
// admission, shedding, breaker, retry and finalize code the live
// Coordinator runs. Every request's decision record is offered to a
// sink over decisionLog (nil discards the log); the soak sizes the sink
// to the stream so a healthy run drops nothing and the log bytes are
// replay-deterministic.
func FleetSoak(ctx context.Context, cfg SoakConfig, decisionLog io.Writer) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	exec, err := serve.NewExecutorTier(cfg.SMs, cfg.Tier)
	if err != nil {
		return nil, fmt.Errorf("fleet soak: building executor: %w", err)
	}
	horizon := soakArrivalEvery * time.Duration(cfg.Requests)
	plan := chaos.ShardFaultPlan(cfg.Seed, horizon)
	var sb *soakBundles
	if !cfg.DisableBundles {
		if sb, err = prepareSoakBundles(ctx, cfg, exec); err != nil {
			return nil, fmt.Errorf("fleet soak: bundles: %w", err)
		}
	}
	reqs, arrivals := genStream(cfg, exec.Injector(), plan, sb != nil)
	// Chaos attempts precompute in parallel waves; bundle-served bench
	// attempts are instead derived when they start from the per-
	// (workload, version) outcomes, because their result depends on the
	// bundle serving at that instant.
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
	rep := &SoakReport{
		Config:   cfg,
		Plan:     plan,
		Results:  make([]serve.Result, len(reqs)),
		Counts:   make(map[serve.Status]int),
		Outcomes: make(map[chaos.Outcome]int),
	}
	m := newMachine(shape{
		shards: cfg.Shards, queueCap: soakQueueCapacity, budget: cfg.fleetBudget(),
		retry: cfg.Retry, breaker: cfg.Breaker, tier: runner.TierLabel(cfg.Tier),
	}, sink, func(seq int, res serve.Result) {
		rep.Results[seq] = res
		rep.Counts[res.Status]++
		if res.Outcome != "" {
			rep.Outcomes[res.Outcome]++
		}
	})

	var reloads []soakEvent
	servingVer := 0 // index into sb.digests of the serving bundle
	if sb != nil {
		rep.BundleDigests = sb.digests
		for _, at := range genuineReloadTimes(plan, horizon) {
			reloads = append(reloads, soakEvent{at: at, kind: evReload})
		}
		kinds := bundle.TamperKinds()
		for i, k := range kinds {
			at := horizon * time.Duration(2*i+1) / time.Duration(2*len(kinds))
			reloads = append(reloads, soakEvent{at: at, kind: evReload, rkind: k})
		}
	}
	attempt := func(req, a int) serve.AttemptRes {
		if w := reqs[req].Workload; w != "" {
			// A bundle-served attempt binds to the version serving at its
			// start: its outcome, digest and duration stay bound even if a
			// reload swaps the table mid-flight.
			return serve.BenchAttempt(reqs[req], a, sb.benchOut[w][servingVer])
		}
		return attempts[req][a]
	}
	reload := func(e soakEvent, now time.Duration) {
		if e.rkind == "" {
			// A genuine reload verified off-path: the swap is the whole
			// on-path cost, and it applies to every shard at once.
			servingVer = 1 - servingVer
			rep.Reloads = append(rep.Reloads, ReloadRecord{
				At: now, Kind: "genuine", Digest: sb.digests[servingVer],
				Status: "ok", Serving: sb.digests[servingVer],
			})
			return
		}
		// A tampered reload: rejected at Verify, before any lane could
		// execute from it. The serving table is untouched.
		tr := sb.tampered[e.rkind]
		rep.Reloads = append(rep.Reloads, ReloadRecord{
			At: now, Kind: e.rkind, Digest: tr.digest,
			Status: "rejected", Reason: string(tr.reason), Error: tr.err.Error(),
			Serving: sb.digests[servingVer],
		})
	}
	rep.Makespan = replay(m, soakServers, reqs, arrivals, reloads, attempt, reload)
	rep.Shards = m.perShard
	rep.Transitions = m.transitions()
	rep.Retries = m.stats.Retries
	rep.HighWater = m.stats.HighWater
	if err := sink.Close(); err != nil {
		return nil, fmt.Errorf("fleet soak: decision log: %w", err)
	}
	rep.Decisions = sink.Stats()
	return rep, nil
}
