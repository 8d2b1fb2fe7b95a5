package serve_test

import (
	"bytes"
	"context"
	"testing"

	"lmi/internal/fleet"
	. "lmi/internal/serve"
)

// soakCfg is the pinned configuration the soak assertions run against:
// the single-node soak (one shard, so no shard is ever killed), the same
// seed scripts/check.sh smokes from the CLI. The seed is re-pinned
// whenever the chaos kind set grows — the stream generator draws kinds
// by index, so appending kinds reshuffles the stream and the
// emergent-dynamics assertions below need a seed where every serving
// path still fires.
func soakCfg(workers int) fleet.SoakConfig {
	return fleet.SoakConfig{Seed: 2, Requests: 200, Shards: 1, Workers: workers}
}

// soak runs one soak and returns the report, its verbose rendering and
// its decision log.
func soak(t *testing.T, cfg fleet.SoakConfig) (*fleet.SoakReport, string, string) {
	t.Helper()
	var log, out bytes.Buffer
	rep, err := fleet.FleetSoak(context.Background(), cfg, &log)
	if err != nil {
		t.Fatalf("workers=%d: %v", cfg.Workers, err)
	}
	rep.Render(&out, true)
	return rep, out.String(), log.String()
}

// firstDiff fails the test at the first byte where two renderings of
// the same soak diverge.
func firstDiff(t *testing.T, what, a, b string) {
	t.Helper()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("%s diverges at byte %d:\nworkers=1: ...%q\nworkers=4: ...%q", what, i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("%s lengths differ: %d vs %d", what, len(a), len(b))
	}
}

// TestSoakDeterministicAcrossWorkers is the tentpole guarantee: the
// rendered soak report — every count, every breaker transition
// timestamp, every per-request line — and the decision log are
// byte-identical whether the precompute pool has one worker or four.
// Worker count may only change wall-clock time.
func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	_, out1, log1 := soak(t, soakCfg(1))
	_, out4, log4 := soak(t, soakCfg(4))
	firstDiff(t, "report", out1, out4)
	firstDiff(t, "decision log", log1, log4)
}

// TestSoakContract asserts the robustness properties of the pinned
// soak run: the process survives (we are still executing), every
// request reaches a final disposition with a typed error, every
// serving dynamic actually fired — load shedding, classified retries,
// retry exhaustion, terminal failures — and the breaker both opened
// under a failure burst and recovered through a half-open probe.
func TestSoakContract(t *testing.T) {
	rep, _, _ := soak(t, soakCfg(0))
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness contract violated:\n%v", v)
	}
	if got := len(rep.Results); got != 200 {
		t.Fatalf("results = %d, want 200", got)
	}
	for st, why := range map[Status]string{
		StatusOK:        "some requests must succeed",
		StatusShed:      "the bounded queue must shed under the bursts",
		StatusRejected:  "an open breaker must reject requests",
		StatusFailed:    "missed injections must fail terminally",
		StatusExhausted: "some retryable failures must exhaust their attempts",
	} {
		if rep.Counts[st] == 0 {
			t.Errorf("no %s requests in the pinned soak: %s", st, why)
		}
	}
	if rep.Retries == 0 {
		t.Errorf("no retries were scheduled; deadlines are not exercising the retry path")
	}
	if rep.HighWater == 0 {
		t.Errorf("queue never filled; arrival pattern is not stressing admission")
	}
	var opened, reclosed bool
	for _, tr := range rep.Transitions {
		if tr.From == BreakerClosed && tr.To == BreakerOpen {
			opened = true
		}
		if tr.From == BreakerHalfOpen && tr.To == BreakerClosed {
			reclosed = true
		}
	}
	if !opened {
		t.Errorf("no breaker cell opened; failure bursts are not tripping the breaker")
	}
	if !reclosed {
		t.Errorf("no breaker cell recovered closed; the half-open probe path never completed")
	}
}

// TestSoakEveryFailureTyped spells the per-request error contract out
// explicitly (Violations covers it, but this is the property the soak
// exists to hold): every non-OK result carries a typed error and a
// class that matches it, and no engine panic reaches a result.
func TestSoakEveryFailureTyped(t *testing.T) {
	rep, _, _ := soak(t, soakCfg(0))
	for i, res := range rep.Results {
		if res.Status == StatusOK {
			if res.Err != nil {
				t.Errorf("request %d: ok with error %v", i, res.Err)
			}
			continue
		}
		if res.Err == nil {
			t.Errorf("request %d: %s with nil error", i, res.Status)
			continue
		}
		if !fleet.TypedError(res.Err) {
			t.Errorf("request %d: untyped error %T: %v", i, res.Err, res.Err)
		}
		if IsPanicError(res.Err) {
			t.Errorf("request %d: engine panic escaped: %v", i, res.Err)
		}
		if res.Class != Classify(res.Err) {
			t.Errorf("request %d: class %s but Classify says %s", i, res.Class, Classify(res.Err))
		}
	}
}

// TestSoakSeedChangesStream: different seeds draw genuinely different
// streams (guards against the generator ignoring its seed).
func TestSoakSeedChangesStream(t *testing.T) {
	_, a, _ := soak(t, fleet.SoakConfig{Seed: 1, Requests: 50, Shards: 1})
	_, b, _ := soak(t, fleet.SoakConfig{Seed: 2, Requests: 50, Shards: 1})
	if a == b {
		t.Fatalf("seeds 1 and 2 rendered identical reports; the stream ignores its seed")
	}
}
