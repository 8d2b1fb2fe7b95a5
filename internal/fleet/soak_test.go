package fleet

import (
	"bytes"
	"context"
	"testing"

	"lmi/internal/serve"
)

func runSoak(t *testing.T, cfg SoakConfig) (*SoakReport, string, string) {
	t.Helper()
	var log bytes.Buffer
	rep, err := FleetSoak(context.Background(), cfg, &log)
	if err != nil {
		t.Fatalf("FleetSoak: %v", err)
	}
	var out bytes.Buffer
	rep.Render(&out, true)
	return rep, out.String(), log.String()
}

// TestFleetSoakDeterministicAcrossWorkers is the headline contract:
// the report and the decision log are byte-identical at any precompute
// worker count.
func TestFleetSoakDeterministicAcrossWorkers(t *testing.T) {
	base := SoakConfig{Seed: 42, Requests: 800, Shards: 3}
	c1, c4 := base, base
	c1.Workers, c4.Workers = 1, 4
	rep, out1, log1 := runSoak(t, c1)
	_, out4, log4 := runSoak(t, c4)
	if out1 != out4 {
		t.Fatal("report bytes differ between Workers=1 and Workers=4")
	}
	if log1 != log4 {
		t.Fatal("decision log bytes differ between Workers=1 and Workers=4")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
	if rep.Counts[serve.StatusOK] == 0 {
		t.Fatal("soak completed nothing")
	}
}

func TestFleetSoakSeedSensitivity(t *testing.T) {
	_, a, _ := runSoak(t, SoakConfig{Seed: 1, Requests: 300, Shards: 2})
	_, b, _ := runSoak(t, SoakConfig{Seed: 2, Requests: 300, Shards: 2})
	if a == b {
		t.Fatal("different seeds rendered identical reports")
	}
}

// TestFleetSoakBurstsFire: the scripted bursts land. Requests arrive
// five times faster inside a burst window, the fleet sheds under them,
// and every shard takes work.
func TestFleetSoakBurstsFire(t *testing.T) {
	rep, _, _ := runSoak(t, SoakConfig{Seed: 18, Requests: 1200, Shards: 4})
	if len(rep.Plan) == 0 {
		t.Fatal("plan scripts no burst")
	}
	if rep.Counts[serve.StatusShed] == 0 || rep.HighWater != rep.Config.fleetBudget() {
		t.Fatalf("bursts never filled the fleet: shed=%d high water %d of %d",
			rep.Counts[serve.StatusShed], rep.HighWater, rep.Config.fleetBudget())
	}
	for s, sh := range rep.Shards {
		if sh.Executed == 0 {
			t.Fatalf("shard %d executed nothing: %+v", s, rep.Shards)
		}
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestFleetSoakSingleShardDegenerates: with one shard every request
// routes to it, and it executes exactly the requests admission kept.
func TestFleetSoakSingleShardDegenerates(t *testing.T) {
	rep, _, _ := runSoak(t, SoakConfig{Seed: 3, Requests: 300, Shards: 1})
	if got, want := rep.Shards[0].Executed, len(rep.Results)-rep.Counts[serve.StatusShed]; got != want {
		t.Fatalf("shard 0 executed %d, want the %d requests not shed", got, want)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestFleetSoakDecisionAccounting: the sink is sized to the stream, so
// every request has exactly one record and nothing drops.
func TestFleetSoakDecisionAccounting(t *testing.T) {
	rep, _, log := runSoak(t, SoakConfig{Seed: 11, Requests: 400, Shards: 3})
	if rep.Decisions.Written != uint64(rep.Config.Requests) || rep.Decisions.Dropped != 0 {
		t.Fatalf("decisions = %+v for %d requests", rep.Decisions, rep.Config.Requests)
	}
	lines := bytes.Count([]byte(log), []byte("\n"))
	if lines != rep.Config.Requests {
		t.Fatalf("decision log has %d lines, want %d", lines, rep.Config.Requests)
	}
}
