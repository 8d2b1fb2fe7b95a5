package chaos

import (
	"testing"
	"time"
)

// TestShardFaultPlanDeterministic: the plan is a pure function of its
// inputs and changes with the seed.
func TestShardFaultPlanDeterministic(t *testing.T) {
	a := ShardFaultPlan(7, 10*time.Second)
	b := ShardFaultPlan(7, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same inputs produced %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := ShardFaultPlan(8, 10*time.Second)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 7 and 8 produced identical plans; plan is not seeded")
	}
}

// TestShardFaultPlanInvariants walks many seeds and checks the
// structural guarantees the fleet soak depends on: two to four burst
// windows, sorted, each of positive length and inside the horizon.
func TestShardFaultPlanInvariants(t *testing.T) {
	const horizon = 10 * time.Second
	for seed := uint64(0); seed < 50; seed++ {
		plan := ShardFaultPlan(seed, horizon)
		if len(plan) < 2 || len(plan) > 4 {
			t.Fatalf("seed %d: %d bursts, want 2..4", seed, len(plan))
		}
		var last time.Duration
		for _, f := range plan {
			if f.At < last {
				t.Fatalf("seed %d: plan not sorted: %v after %v", seed, f.At, last)
			}
			last = f.At
			if f.At < 0 || f.Dur <= 0 || f.At+f.Dur > horizon {
				t.Fatalf("seed %d: burst outside horizon or empty: %v", seed, f)
			}
		}
	}
	if len(ShardFaultPlan(1, 0)) != 0 {
		t.Fatalf("zero horizon must script nothing")
	}
}
