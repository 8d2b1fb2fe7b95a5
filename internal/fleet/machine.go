package fleet

import (
	"fmt"
	"hash/fnv"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/serve"
)

// shape is the serving shape one machine enforces.
type shape struct {
	shards   int
	queueCap int // per-shard admission queue
	budget   int // total queued across shards
	retry    serve.RetryConfig
	breaker  serve.BreakerConfig
	tier     string // the decision records' tier label
}

// task is one admitted request between admission and its final
// disposition.
type task struct {
	seq     int
	req     serve.Request
	shard   int
	attempt int    // attempts started so far
	token   uint64 // breaker probe token of the running attempt
	last    serve.Outcome
}

// machine is the fleet's serving state machine: every serving decision
// is made here and nowhere else. It admits or sheds each request
// against its shard's queue and the fleet budget, asks the shard's
// breaker whether each attempt may start and records how it ended,
// classifies an attempt's outcome into a retry (with its backoff) or a
// final disposition, and finalizes: counters, the decision record,
// and the result handed to done.
//
// The machine is single-threaded and reads no clock: every event that
// depends on time carries its now. The live Coordinator steps it under
// its mutex on the wall clock, from handlers and shard workers; the
// fleet soak steps it from the virtual-time event heap. Both drivers
// keep a worker (a virtual server in the soak) on one request from
// Dequeue until its final disposition, backoff sleeps included: a retry
// never goes back through admission.
type machine struct {
	shape
	tasks    map[int]*task
	queues   [][]int // per shard: queued task seqs, FIFO
	brks     []*serve.Breaker
	perShard []ShardSummary
	stats    serve.Stats
	seq      int
	sink     *Sink
	done     func(seq int, res serve.Result)
}

func newMachine(sh shape, sink *Sink, done func(seq int, res serve.Result)) *machine {
	m := &machine{
		shape:    sh,
		tasks:    make(map[int]*task),
		queues:   make([][]int, sh.shards),
		brks:     make([]*serve.Breaker, sh.shards),
		perShard: make([]ShardSummary, sh.shards),
		sink:     sink,
		done:     done,
	}
	for i := range m.brks {
		m.brks[i] = serve.NewBreaker(sh.breaker)
	}
	return m
}

// Admit numbers the request in admission order (its decision record's
// seq) and queues it on its shard, or sheds it: at the fleet budget
// with ErrFleetOverloaded, at a full shard queue with
// serve.ErrOverloaded. A shed is finalized here.
func (m *machine) Admit(req serve.Request) (seq, shard int, err error) {
	t := &task{seq: m.seq, req: req, shard: shardOf(req, m.shards)}
	m.seq++
	switch {
	case m.stats.Depth >= m.budget:
		err = ErrFleetOverloaded
	case len(m.queues[t.shard]) >= m.queueCap:
		err = serve.ErrOverloaded
	}
	if err != nil {
		t.shard = -1
		m.finalize(t, serve.StatusShed, err)
		return t.seq, -1, err
	}
	m.tasks[t.seq] = t
	m.queues[t.shard] = append(m.queues[t.shard], t.seq)
	m.stats.Accepted++
	m.stats.Depth++
	m.stats.HighWater = max(m.stats.HighWater, m.stats.Depth)
	return t.seq, t.shard, nil
}

// Dequeue hands a free worker of shard its queue's head, if any.
func (m *machine) Dequeue(shard int) (int, bool) {
	q := m.queues[shard]
	if len(q) == 0 {
		return 0, false
	}
	m.queues[shard] = q[1:]
	m.stats.Depth--
	m.stats.InFlight++
	return q[0], true
}

// Refuse finalizes a dequeued request its executor found malformed:
// failed, with no attempt and no breaker verdict.
func (m *machine) Refuse(seq int, err error) {
	m.finalize(m.tasks[seq], serve.StatusFailed, err)
}

// Start asks the shard's breaker whether the request's next attempt may
// run at now. It returns the attempt's index, or finalizes the request
// rejected with serve.ErrCircuitOpen.
func (m *machine) Start(seq int, now time.Duration) (int, bool) {
	t := m.tasks[seq]
	var ok bool
	ok, t.token = m.brks[t.shard].Allow(t.req.Key(), now)
	if !ok {
		m.finalize(t, serve.StatusRejected, serve.ErrCircuitOpen)
		return 0, false
	}
	t.attempt++
	return t.attempt - 1, true
}

// Finish records an attempt's outcome at now on the breaker and decides
// what follows: a retry after the returned backoff, or the final
// disposition. gone is the client's context error, if it has left; a
// retryable failure then ends the request instead of retrying on its
// behalf.
func (m *machine) Finish(seq int, now time.Duration, out serve.Outcome, gone error) (time.Duration, bool) {
	t := m.tasks[seq]
	m.brks[t.shard].Record(t.req.Key(), now, t.token, out.Err == nil)
	t.last = out
	switch cls := serve.Classify(out.Err); {
	case cls == serve.ClassOK:
		m.finalize(t, serve.StatusOK, nil)
	case cls == serve.ClassTerminal:
		m.finalize(t, serve.StatusFailed, out.Err)
	case gone != nil:
		m.finalize(t, serve.StatusFailed, fmt.Errorf("serve: client gone: %w", gone))
	case t.attempt < m.retry.MaxAttempts:
		m.stats.Retries++
		return m.retry.Delay(t.req.Seed, t.attempt-1), true
	default:
		m.finalize(t, serve.StatusExhausted, out.Err)
	}
	return 0, false
}

// finalize folds a final disposition into the counters, emits the
// request's decision record and hands the result to done. The sink
// never blocks.
func (m *machine) finalize(t *task, st serve.Status, err error) {
	res := serve.Result{
		Req: t.req, Status: st, Attempts: t.attempt, Err: err, Class: serve.ClassTerminal,
		Outcome: t.last.Outcome, Cycles: t.last.Cycles, ECChecked: t.last.ECChecked,
		ECElided: t.last.ECElided, Faults: t.last.Faults, Detail: t.last.Detail,
		BundleDigest: t.last.BundleDigest,
	}
	switch st {
	case serve.StatusOK:
		res.Class = serve.ClassOK
		m.stats.OK++
	case serve.StatusShed:
		m.stats.Shed++
	case serve.StatusRejected:
		m.stats.Rejected++
	case serve.StatusExhausted:
		res.Class = serve.ClassRetryable
		m.stats.Exhausted++
	default:
		m.stats.Failed++
	}
	var brk serve.BreakerState
	if t.shard >= 0 {
		brk = m.brks[t.shard].State(t.req.Key())
		m.perShard[t.shard].Executed++
		m.stats.InFlight--
		delete(m.tasks, t.seq)
	}
	m.sink.Offer(decisionFrom(t.seq, res, t.shard, brk, m.retry, m.tier))
	m.done(t.seq, res)
}

// transitions collects every shard's breaker transitions in shard
// order.
func (m *machine) transitions() []ShardTransition {
	var out []ShardTransition
	for i, b := range m.brks {
		for _, t := range b.Transitions() {
			out = append(out, ShardTransition{Shard: i, Transition: t})
		}
	}
	return out
}

// ShardSummary is one shard's line in /stats, the shutdown report and
// the soak report: the requests it took off its queue.
type ShardSummary struct {
	Executed int `json:"executed"`
}

// ShardTransition tags a breaker transition with its shard.
type ShardTransition struct {
	Shard int `json:"shard"`
	serve.Transition
}

// shardOf routes a request: its hash modulo the fleet size.
func shardOf(req serve.Request, shards int) int {
	return int(RequestHash(req) % uint64(shards))
}

// RequestHash places a request: FNV-1a over its breaker key
// (workload/mechanism) mixed with its seed, so a (workload, mechanism)
// pair's traffic spreads across the fleet by seed.
func RequestHash(req serve.Request) uint64 {
	f := fnv.New64a()
	f.Write([]byte(req.Key()))
	return chaos.MixSeed(f.Sum64(), req.Seed)
}
