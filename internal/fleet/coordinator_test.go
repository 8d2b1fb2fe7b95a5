package fleet

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

	"lmi/internal/serve"
)

// seedsOwnedBy finds request seeds a fleet of the given size routes to
// the wanted shard.
func seedsOwnedBy(t *testing.T, shards, shard, n int) []uint64 {
	t.Helper()
	var out []uint64
	for seed := uint64(1); len(out) < n && seed < 100000; seed++ {
		req := serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed}
		if shardOf(req, shards) == shard {
			out = append(out, seed)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d of %d seeds owned by shard %d", len(out), n, shard)
	}
	return out
}

func testConfig(log *bytes.Buffer) Config {
	cfg := Config{
		Shards:          2,
		WorkersPerShard: 1,
		QueueCapacity:   8,
		FleetBudget:     64,
		Retry:           serve.RetryConfig{MaxAttempts: 1},
	}
	if log != nil {
		cfg.DecisionLog = log
		cfg.LogBuffer = 256
	}
	return cfg
}

func TestCoordinatorServesAndLogsDecisions(t *testing.T) {
	var log bytes.Buffer
	c, err := NewCoordinator(testConfig(&log))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	const n = 6
	for seed := uint64(1); seed <= n; seed++ {
		res, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Status != serve.StatusOK {
			t.Fatalf("seed %d: status %s err %v", seed, res.Status, res.Err)
		}
	}
	rep := c.Shutdown(context.Background())
	if rep.Stats.Accepted != n || rep.Stats.OK != n {
		t.Fatalf("stats = %+v, want %d accepted and ok", rep.Stats, n)
	}
	if rep.Decisions.Written != n || rep.Decisions.Dropped != 0 {
		t.Fatalf("decisions = %+v, want %d written", rep.Decisions, n)
	}
	if exec := rep.Shards[0].Executed + rep.Shards[1].Executed; exec != n {
		t.Fatalf("per-shard executed sums to %d, want %d", exec, n)
	}
	lines := 0
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision line %d: %v", lines, err)
		}
		if d.Status != string(serve.StatusOK) || d.Shard < 0 || d.Shard > 1 {
			t.Fatalf("decision %d malformed: %+v", lines, d)
		}
		lines++
	}
	if lines != n {
		t.Fatalf("decision log has %d records, want %d", lines, n)
	}
}

func TestCoordinatorDrainingRejects(t *testing.T) {
	c, err := NewCoordinator(testConfig(nil))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Shutdown(context.Background())
	if _, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Seed: 1}); err != serve.ErrDraining {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
}

func TestCoordinatorHTTP(t *testing.T) {
	c, err := NewCoordinator(testConfig(nil))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	resp, err := http.Post(srv.URL+"/run", "application/json",
		strings.NewReader(`{"mechanism":"lmi","kind":"control","seed":5}`))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	var run struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatalf("decode /run: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || run.Status != "ok" {
		t.Fatalf("POST /run = %d %+v", resp.StatusCode, run)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /stats: %v", err)
	}
	var stats struct {
		Shards []map[string]int
		Stats  serve.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	// The live fleet has no shard death: each shard line is its executed
	// count alone.
	for i, sh := range stats.Shards {
		if len(sh) != 1 {
			t.Fatalf("/stats shard %d = %v, want only executed", i, sh)
		}
	}
	if len(stats.Shards) != 2 || stats.Shards[0]["executed"]+stats.Shards[1]["executed"] != 1 {
		t.Fatalf("/stats shards = %+v, want 2 shards and 1 executed", stats.Shards)
	}
	if stats.Stats.OK != 1 {
		t.Fatalf("/stats counters = %+v, want 1 ok", stats.Stats)
	}

}

// TestCoordinatorClientGoneStillDecided: a request whose client gives up
// while it is queued is still finalized by the shard worker that
// dequeues it — exactly one decision record and one terminal counter,
// so the counters and the log add up to what was admitted.
func TestCoordinatorClientGoneStillDecided(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig(&log)
	cfg.Retry = serve.RetryConfig{MaxAttempts: 2, BackoffBase: 2 * time.Second, BackoffMax: 4 * time.Second}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	seeds := seedsOwnedBy(t, 2, 0, 2)

	// Wedge shard 0's only worker in a retry backoff (a 1ns attempt
	// deadline fails fast and retryably); cancelling its context later
	// ends the backoff.
	wedgeCtx, unwedge := context.WithCancel(context.Background())
	defer unwedge()
	wedged := make(chan struct{})
	go func() {
		defer close(wedged)
		c.Submit(wedgeCtx, serve.Request{Mechanism: "lmi", Kind: "control", Seed: seeds[0], Deadline: time.Nanosecond})
	}()
	waitFor(t, "the wedge to reach the worker", func() bool { return liveStats(t, c).InFlight == 1 })

	// Queue a second request behind the wedge, then abandon it.
	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, serve.Request{Mechanism: "lmi", Kind: "control", Seed: seeds[1]})
		gone <- err
	}()
	waitFor(t, "the second request to queue", func() bool { return liveStats(t, c).Depth == 1 })
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Submit = %v, want wrapped context.Canceled", err)
	}
	unwedge()
	<-wedged

	rep := c.Shutdown(context.Background())
	st := rep.Stats
	terminal := st.OK + st.Failed + st.Exhausted + st.Rejected + st.Shed
	if st.Accepted != 2 || terminal != 2 {
		t.Fatalf("stats = %+v, want 2 accepted and 2 terminal", st)
	}
	if rep.Decisions.Written != 2 || rep.Decisions.Dropped != 0 {
		t.Fatalf("decisions = %+v, want 2 written", rep.Decisions)
	}
	found := 0
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision: %v", err)
		}
		if d.Seed == SeedString(seeds[1]) {
			found++
			if d.Shard != 0 {
				t.Fatalf("abandoned request decided on shard %d, want 0: %+v", d.Shard, d)
			}
		}
	}
	if found != 1 {
		t.Fatalf("abandoned request has %d decision records, want 1", found)
	}
}

// liveStats reads the fleet counters the way a client does, through
// GET /stats on the coordinator's handler.
func liveStats(t *testing.T, c *Coordinator) serve.Stats {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var body struct {
		Stats serve.Stats `json:"stats"`
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

// TestCoordinatorConcurrentSubmit: many clients at once. Admission,
// counters and decision records stay consistent: every request is
// admitted or shed exactly once, every admitted one ends in exactly one
// terminal counter, and the log holds one record per request with
// sequence numbers 0..n-1.
func TestCoordinatorConcurrentSubmit(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig(&log)
	cfg.WorkersPerShard = 2
	cfg.QueueCapacity = 2
	cfg.FleetBudget = 3
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	const n = 24
	errs := make(chan error, n)
	for seed := uint64(1); seed <= n; seed++ {
		go func(seed uint64) {
			_, err := c.Submit(context.Background(), serve.Request{Mechanism: "lmi", Kind: "control", Seed: seed})
			errs <- err
		}(seed)
	}
	shed := uint64(0)
	for i := 0; i < n; i++ {
		switch err := <-errs; {
		case err == nil:
		case errors.Is(err, serve.ErrOverloaded), errors.Is(err, ErrFleetOverloaded):
			shed++
		default:
			t.Errorf("Submit: %v", err)
		}
	}
	rep := c.Shutdown(context.Background())
	st := rep.Stats
	if st.Accepted+st.Shed != n || st.Shed != shed {
		t.Fatalf("stats = %+v, want %d accepted+shed with %d shed", st, n, shed)
	}
	if terminal := st.OK + st.Failed + st.Exhausted + st.Rejected; terminal != st.Accepted {
		t.Fatalf("stats = %+v: %d terminal for %d accepted", st, terminal, st.Accepted)
	}
	if st.HighWater > cfg.FleetBudget || st.InFlight != 0 || st.Depth != 0 {
		t.Fatalf("stats = %+v: high water above the budget %d, or work left after drain", st, cfg.FleetBudget)
	}
	seen := make(map[int]bool)
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("decision: %v", err)
		}
		if d.Seq < 0 || d.Seq >= n || seen[d.Seq] {
			t.Fatalf("decision seq %d out of range or repeated", d.Seq)
		}
		seen[d.Seq] = true
	}
	if len(seen) != n || rep.Decisions.Written != n {
		t.Fatalf("%d decision records (%+v), want %d", len(seen), rep.Decisions, n)
	}
}

// TestCoordinatorRunOverCap: a /run body one byte over maxRunBytes —
// here a well-formed request padded with an unknown field, streamed
// without a length — is a 400 with the typed bad-request error, and the
// request is neither admitted nor logged.
func TestCoordinatorRunOverCap(t *testing.T) {
	var log bytes.Buffer
	c, err := NewCoordinator(testConfig(&log))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	const head, tail = `{"pad":"`, `","mechanism":"lmi","kind":"control","seed":5}`
	body := io.MultiReader(strings.NewReader(head),
		io.LimitReader(zeros{}, maxRunBytes+1-int64(len(head)+len(tail))), strings.NewReader(tail))
	resp, err := http.Post(srv.URL+"/run", "application/json", body)
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	var run struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatalf("decode /run: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(run.Error, serve.ErrBadRequest.Error()) {
		t.Fatalf("over-cap POST /run = %d %+v, want 400 with a typed bad request", resp.StatusCode, run)
	}
	rep := c.Shutdown(context.Background())
	if rep.Stats.Accepted != 0 || rep.Stats.Shed != 0 || rep.Decisions.Written != 0 || log.Len() != 0 {
		t.Fatalf("over-cap request reached the fleet: stats %+v, decisions %+v", rep.Stats, rep.Decisions)
	}
}
