package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/serve"
)

// newTestMachine builds a one-shard machine logging into log and
// collecting the final results in order.
func newTestMachine(log *bytes.Buffer, retry serve.RetryConfig) (*machine, *Sink, *[]serve.Result) {
	sink := NewSink(log, 64)
	var done []serve.Result
	m := newMachine(shape{shards: 1, queueCap: 4, budget: 4, retry: retry.WithDefaults()}, sink,
		func(_ int, res serve.Result) { done = append(done, res) })
	return m, sink, &done
}

// decisions parses a JSONL decision log.
func decisions(t *testing.T, log *bytes.Buffer) []Decision {
	t.Helper()
	var out []Decision
	sc := bufio.NewScanner(log)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision %d: %v", len(out), err)
		}
		out = append(out, d)
	}
	return out
}

// TestMachineSeqIsAdmissionOrder: a record's seq is its request's
// admission order, not the order requests finish in.
func TestMachineSeqIsAdmissionOrder(t *testing.T) {
	var log bytes.Buffer
	m, sink, _ := newTestMachine(&log, serve.RetryConfig{})
	a, _, _ := m.Admit(serve.Request{Mechanism: "lmi", Kind: "control", Seed: 0xA})
	b, _, _ := m.Admit(serve.Request{Mechanism: "lmi", Kind: "control", Seed: 0xB})
	for range 2 {
		seq, _ := m.Dequeue(0)
		m.Start(seq, 0)
	}
	m.Finish(b, time.Millisecond, serve.Outcome{}, nil)
	m.Finish(a, 2*time.Millisecond, serve.Outcome{}, nil)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := decisions(t, &log)
	if len(got) != 2 || got[0].Seed != SeedString(0xB) || got[1].Seed != SeedString(0xA) {
		t.Fatalf("records %+v, want B's then A's", got)
	}
	if got[1].Seq != 0 || got[0].Seq != 1 {
		t.Fatalf("A carries seq %d and B seq %d, want 0 and 1", got[1].Seq, got[0].Seq)
	}
}

// TestMachineRetryRule: a retryable failure schedules the request's
// deterministic backoff until MaxAttempts, then exhausts; a client that
// left ends the request instead of retrying it.
func TestMachineRetryRule(t *testing.T) {
	var log bytes.Buffer
	retry := serve.RetryConfig{MaxAttempts: 2, BackoffBase: time.Millisecond}
	m, sink, done := newTestMachine(&log, retry)
	transient := serve.Outcome{Err: fmt.Errorf("attempt: %w", context.DeadlineExceeded)}
	req := serve.Request{Mechanism: "lmi", Kind: "control", Seed: 9}
	for _, gone := range []error{nil, context.Canceled} {
		seq, _, _ := m.Admit(req)
		m.Dequeue(0)
		m.Start(seq, 0)
		backoff, ok := m.Finish(seq, 0, transient, nil)
		if want := m.retry.Delay(req.Seed, 0); !ok || backoff != want {
			t.Fatalf("first failure: retry=%v after %v, want a retry after %v", ok, backoff, want)
		}
		if a, ok := m.Start(seq, backoff); !ok || a != 1 {
			t.Fatalf("retry started attempt %d (ok=%v), want 1", a, ok)
		}
		if _, ok := m.Finish(seq, backoff, transient, gone); ok {
			t.Fatal("retried past MaxAttempts")
		}
	}
	sink.Close()
	exhausted, gone := (*done)[0], (*done)[1]
	if exhausted.Status != serve.StatusExhausted || exhausted.Class != serve.ClassRetryable || exhausted.Attempts != 2 {
		t.Fatalf("exhausted request = %+v", exhausted)
	}
	if gone.Status != serve.StatusFailed || gone.Class != serve.ClassTerminal || !errors.Is(gone.Err, context.Canceled) {
		t.Fatalf("abandoned request = %+v, want failed terminal with the client's error", gone)
	}
	if m.stats.Retries != 2 || m.stats.InFlight != 0 || len(m.tasks) != 0 {
		t.Fatalf("stats %+v with %d tasks left, want 2 retries and nothing in flight", m.stats, len(m.tasks))
	}
}

// TestShardRoutingDeterministicAndBalanced: a request's shard is a pure
// function of the request, and a seeded spread covers every shard.
func TestShardRoutingDeterministicAndBalanced(t *testing.T) {
	per := make(map[int]int)
	for i := uint64(0); i < 4000; i++ {
		req := serve.Request{Mechanism: "lmi", Kind: "control", Seed: chaos.MixSeed(0x5217, i)}
		s := shardOf(req, 4)
		if s != shardOf(req, 4) || s < 0 || s >= 4 {
			t.Fatalf("shard %d for %+v: out of range or unstable", s, req)
		}
		per[s]++
	}
	for s := 0; s < 4; s++ {
		if per[s] < 800 {
			t.Fatalf("shard %d owns %d of 4000 requests: %v", s, per[s], per)
		}
	}
}

func TestRequestHashStableAcrossRetries(t *testing.T) {
	a := serve.Request{Mechanism: "lmi", Kind: "control", Seed: 7}
	b := a // a retry runs the same request verbatim
	if RequestHash(a) != RequestHash(b) {
		t.Fatal("identical requests hash differently")
	}
	c := a
	c.Seed = 8
	if RequestHash(a) == RequestHash(c) {
		t.Fatal("seed does not contribute to the hash")
	}
	d := a
	d.Mechanism = "gpushield"
	if RequestHash(a) == RequestHash(d) {
		t.Fatal("breaker key does not contribute to the hash")
	}
}

// TestLiveMatchesSoak runs one seeded stream through the live
// Coordinator and through the soak's event loop and demands the same
// decision records. Both sides get one worker per shard, no
// per-request deadline and a breaker cooldown longer than the run; the
// same scripted retryable failures (a transient error on a seeded
// number of a request's first attempts) make requests retry. The live
// side submits one request at a time; the soak side queues the whole
// stream at once, so while a request backs off, its shard's next
// requests wait behind it — unless the soak released the server during
// the backoff, which reorders the shard's breaker verdicts.
func TestLiveMatchesSoak(t *testing.T) {
	const n, shards = 160, 2
	exec, err := serve.NewExecutor(1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, _ := genStream(SoakConfig{Seed: 5, Requests: n}, exec.Injector(), nil, false)
	for i := range reqs {
		reqs[i].Deadline = 0
	}
	execute := func(ctx context.Context, req serve.Request, attempt int) serve.Outcome {
		if k := chaos.MixSeed(req.Seed, 0xF1A4) % 10; uint64(attempt) < k && k <= 3 {
			return serve.Outcome{Err: fmt.Errorf("scripted transient failure: %w", context.DeadlineExceeded),
				Detail: "scripted transient failure"}
		}
		return exec.Execute(ctx, req, serve.AttemptSeed(req.Seed, attempt))
	}
	retry := serve.RetryConfig{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond}.WithDefaults()
	brk := serve.BreakerConfig{Cooldown: time.Hour}.WithDefaults()

	var liveLog bytes.Buffer
	c, err := NewCoordinator(Config{
		Shards: shards, WorkersPerShard: 1, QueueCapacity: n, FleetBudget: n,
		Retry: retry, Breaker: brk, DecisionLog: &liveLog, LogBuffer: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.execute = func(ctx context.Context, _ int, req serve.Request, attempt int) serve.Outcome {
		return execute(ctx, req, attempt)
	}
	for _, req := range reqs {
		if _, err := c.Submit(context.Background(), req); err != nil {
			t.Fatalf("live Submit: %v", err)
		}
	}
	c.Shutdown(context.Background())

	var soakLog bytes.Buffer
	sink := NewSink(&soakLog, n)
	m := newMachine(shape{shards: shards, queueCap: n, budget: n, retry: retry, breaker: brk}, sink,
		func(int, serve.Result) {})
	arrivals := make([]time.Duration, n)
	for i := range arrivals {
		arrivals[i] = time.Duration(i)
	}
	replay(m, 1, reqs, arrivals, nil, func(req, a int) serve.AttemptRes {
		return serve.BenchAttempt(reqs[req], a, execute(context.Background(), reqs[req], a))
	}, nil)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	live, soak := decisions(t, &liveLog), decisions(t, &soakLog)
	if len(live) != n || len(soak) != n {
		t.Fatalf("%d live and %d soak records, want %d each", len(live), len(soak), n)
	}
	sort.Slice(soak, func(i, j int) bool { return soak[i].Seq < soak[j].Seq })
	statuses := make(map[string]int)
	for i := range live {
		if !reflect.DeepEqual(live[i], soak[i]) {
			t.Fatalf("record %d differs:\nlive: %+v\nsoak: %+v", i, live[i], soak[i])
		}
		statuses[live[i].Status]++
	}
	for _, st := range []serve.Status{serve.StatusOK, serve.StatusFailed, serve.StatusExhausted, serve.StatusRejected} {
		if statuses[string(st)] == 0 {
			t.Errorf("no %s request: the stream does not exercise every disposition (%v)", st, statuses)
		}
	}
}
