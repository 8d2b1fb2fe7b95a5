package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/fleet"
	. "lmi/internal/serve"
)

// The live serving tests run against a single-shard fleet.Coordinator:
// the single-node service.

// testServer builds a small live single-node service for HTTP tests.
func testServer(t *testing.T) *fleet.Coordinator {
	t.Helper()
	return newServer(t, fleet.Config{WorkersPerShard: 2, QueueCapacity: 8})
}

// newServer builds a single-shard coordinator that the test drains on
// cleanup.
func newServer(t *testing.T, cfg fleet.Config) *fleet.Coordinator {
	t.Helper()
	cfg.Shards = 1
	s, err := fleet.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// resultJSON mirrors the wire form of a Result on POST /run.
type resultJSON struct {
	Status   Status        `json:"status"`
	Attempts int           `json:"attempts"`
	Class    Class         `json:"class"`
	Outcome  chaos.Outcome `json:"outcome"`
	Cycles   uint64        `json:"cycles"`
	Error    string        `json:"error"`
	Bundle   string        `json:"bundle_digest"`
}

// postRun sends one request to POST /run and decodes the reply.
func postRun(t *testing.T, ts *httptest.Server, body string) (int, resultJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rj resultJSON
	if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
		t.Fatalf("decoding /run reply: %v", err)
	}
	return resp.StatusCode, rj
}

// TestServerRunEndpoint: a clean injection-control request executes and
// returns 200 with the chaos classification; a missed injection comes
// back 502 with the typed silent-corruption error; garbage is a 400.
func TestServerRunEndpoint(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, rj := postRun(t, ts, `{"mechanism":"lmi","kind":"control","seed":7}`)
	if code != http.StatusOK || rj.Status != StatusOK {
		t.Fatalf("control run: code=%d result=%+v", code, rj)
	}
	if rj.Outcome != chaos.OutcomeClean || rj.Cycles == 0 {
		t.Fatalf("control run missing chaos outcome/cycles: %+v", rj)
	}

	// lmi misses free-skip-nullify (use-after-free via skipped nullify):
	// terminal, typed, one attempt only.
	code, rj = postRun(t, ts, `{"mechanism":"lmi","kind":"free-skip-nullify","seed":7}`)
	if code != http.StatusBadGateway || rj.Status != StatusFailed {
		t.Fatalf("missed injection: code=%d result=%+v", code, rj)
	}
	if !strings.Contains(rj.Error, "silent corruption") || rj.Class != ClassTerminal {
		t.Fatalf("missed injection not typed terminal: %+v", rj)
	}
	if rj.Attempts != 1 {
		t.Fatalf("terminal failure was retried: attempts=%d", rj.Attempts)
	}

	code, rj = postRun(t, ts, `{"mechanism":"nope","seed":1}`)
	if code != http.StatusBadRequest || !strings.Contains(rj.Error, "bad request") {
		t.Fatalf("unknown mechanism: code=%d result=%+v", code, rj)
	}

	code, _ = postRun(t, ts, `{not json`)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed body: code=%d, want 400", code)
	}
}

// TestServerBenchRun: plain benchmark requests run through the workload
// table.
func TestServerBenchRun(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, rj := postRun(t, ts, `{"workload":"nn","mechanism":"lmi","seed":1}`)
	if code != http.StatusOK || rj.Status != StatusOK || rj.Cycles == 0 {
		t.Fatalf("bench run: code=%d result=%+v", code, rj)
	}
}

// TestServerHealthEndpoints: /healthz is alive unconditionally; /readyz
// and /run flip to refusing once the drain begins; /stats serves the
// counters either way.
func TestServerHealthEndpoints(t *testing.T) {
	s := newServer(t, fleet.Config{WorkersPerShard: 1, QueueCapacity: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := s.Shutdown(ctx)
	if rep.Stats.InFlight != 0 {
		t.Fatalf("shutdown report shows %d in flight after drain", rep.Stats.InFlight)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d (liveness must not depend on drain)", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", code)
	}
	if code, rj := postRun(t, ts, `{"mechanism":"lmi","seed":1}`); code != http.StatusServiceUnavailable ||
		!strings.Contains(rj.Error, "draining") {
		t.Fatalf("/run during drain: code=%d result=%+v", code, rj)
	}
	if code := get("/stats"); code != http.StatusOK {
		t.Fatalf("/stats during drain = %d", code)
	}
}

// TestServerStatsTier: /stats reports a non-default execution tier and
// omits the field entirely on the default cycle tier, matching the
// runner's jobJSON convention.
func TestServerStatsTier(t *testing.T) {
	statsBody := func(cfg fleet.Config) string {
		s := newServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	body := statsBody(fleet.Config{WorkersPerShard: 1, QueueCapacity: 4, Tier: fastsim.TierCompiled})
	if !strings.Contains(body, `"tier":"compiled"`) {
		t.Fatalf("compiled-tier /stats missing tier field: %s", body)
	}
	body = statsBody(fleet.Config{WorkersPerShard: 1, QueueCapacity: 4})
	if strings.Contains(body, `"tier"`) {
		t.Fatalf("cycle-tier /stats must omit the tier field: %s", body)
	}
}

// liveStats reads the fleet counters the way a client does, through
// GET /stats on the coordinator's handler.
func liveStats(t *testing.T, c *fleet.Coordinator) Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var body struct {
		Stats Stats `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return body.Stats
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerShedsWhenFull: with the only worker busy and the queue at
// capacity, the next Submit sheds immediately with ErrOverloaded — it
// must not block.
func TestServerShedsWhenFull(t *testing.T) {
	s := newServer(t, fleet.Config{
		WorkersPerShard: 1, QueueCapacity: 1, FleetBudget: 8,
		Retry: RetryConfig{MaxAttempts: 2, BackoffBase: 2 * time.Second, BackoffMax: 4 * time.Second},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Occupy the only worker: a 1ns attempt deadline fails fast and
	// retryably, so the worker sits in a multi-second backoff until the
	// cancel below ends it.
	wedged := make(chan struct{})
	go func() {
		defer close(wedged)
		s.Submit(ctx, Request{Mechanism: "lmi", Kind: "control", Seed: 1, Deadline: time.Nanosecond})
	}()
	waitFor(t, "the worker to take the first request", func() bool { return liveStats(t, s).InFlight == 1 })

	// Fill the only queue slot; the submitter parks waiting for a
	// result that never comes until we cancel it.
	req := Request{Mechanism: "lmi", Seed: 1}
	parked := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, req)
		parked <- err
	}()
	waitFor(t, "the second request to queue", func() bool { return liveStats(t, s).Depth == 1 })

	if _, err := s.Submit(ctx, req); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit err = %v, want ErrOverloaded", err)
	}
	st := liveStats(t, s)
	if st.Shed != 1 || st.Accepted != 2 || st.HighWater != 1 {
		t.Fatalf("stats = %+v, want accepted=2 shed=1 high water 1", st)
	}

	cancel()
	if err := <-parked; err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("parked submit err = %v, want wrapped context.Canceled", err)
	}
	<-wedged
}

// TestServerRetriesWithBackoff: a request whose attempts always exceed
// their deadline is retried MaxAttempts times with the deterministic
// backoff schedule and ends exhausted: the retries are counted and the
// schedule is in the decision record.
func TestServerRetriesWithBackoff(t *testing.T) {
	retry := RetryConfig{MaxAttempts: 3, BackoffBase: 10 * time.Millisecond, BackoffMax: 100 * time.Millisecond}.WithDefaults()
	req := Request{Mechanism: "lmi", Kind: "control", Seed: 9}
	want := []time.Duration{retry.Delay(req.Seed, 0), retry.Delay(req.Seed, 1)}

	var log bytes.Buffer
	s, err := fleet.NewCoordinator(fleet.Config{
		WorkersPerShard: 1, Retry: retry, DefaultDeadline: time.Nanosecond, DecisionLog: &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The 1ns attempt deadline is far below any real trial's runtime:
	// every attempt dies in the watchdog with a retryable context error.
	if res.Status != StatusExhausted || res.Attempts != retry.MaxAttempts {
		t.Fatalf("result = %+v, want exhausted after %d attempts", res, retry.MaxAttempts)
	}
	if res.Class != ClassRetryable || !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("final error %v (class %s) is not a typed deadline", res.Err, res.Class)
	}
	rep := s.Shutdown(context.Background())
	if rep.Stats.Retries != uint64(len(want)) || rep.Stats.Exhausted != 1 {
		t.Fatalf("stats = %+v, want %d retries and 1 exhausted", rep.Stats, len(want))
	}
	var d fleet.Decision
	if err := json.Unmarshal(bytes.TrimSpace(log.Bytes()), &d); err != nil {
		t.Fatalf("decision record: %v", err)
	}
	if len(d.RetryNS) != len(want) {
		t.Fatalf("decision retry schedule %v, want %d backoffs", d.RetryNS, len(want))
	}
	for i := range want {
		if time.Duration(d.RetryNS[i]) != want[i] {
			t.Fatalf("decision backoff %d = %v, want %v", i, time.Duration(d.RetryNS[i]), want[i])
		}
	}
}

// TestServerBreakerRejects: once a key's breaker opens, subsequent
// requests for that key are rejected without executing.
func TestServerBreakerRejects(t *testing.T) {
	var log bytes.Buffer
	s := newServer(t, fleet.Config{
		WorkersPerShard: 1,
		Breaker:         BreakerConfig{FailThreshold: 1, Cooldown: time.Hour, ProbeSuccesses: 1},
		DecisionLog:     &log,
	})

	// lmi misses free-skip-nullify: one terminal failure opens the cell
	// at threshold 1.
	bad := Request{Mechanism: "lmi", Kind: "free-skip-nullify", Seed: 3}
	res, err := s.Submit(context.Background(), bad)
	if err != nil || res.Status != StatusFailed {
		t.Fatalf("setup failure run = %+v, %v", res, err)
	}
	res, err = s.Submit(context.Background(), Request{Mechanism: "lmi", Kind: "control", Seed: 4})
	if err != nil || res.Status != StatusRejected || !errors.Is(res.Err, ErrCircuitOpen) {
		t.Fatalf("request on open cell = %+v, %v, want rejected with ErrCircuitOpen", res, err)
	}
	if res.Attempts != 0 {
		t.Fatalf("rejected request still executed %d attempts", res.Attempts)
	}
	rep := s.Shutdown(context.Background())
	if rep.Stats.Rejected != 1 || rep.Stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 failed and 1 rejected", rep.Stats)
	}
	var breakers []string
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var d fleet.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision record: %v", err)
		}
		breakers = append(breakers, d.Status+"/"+d.Breaker)
	}
	if strings.Join(breakers, " ") != "failed/open rejected/open" {
		t.Fatalf("decision records = %v, want the failure and the rejection on an open cell", breakers)
	}
}
