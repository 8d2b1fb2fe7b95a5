package chaos

import (
	"fmt"
	"sort"
	"time"
)

// ShardFault is one scripted fleet fault: a burst-overload window in
// which the arrival rate multiplies, driving the admission queues
// toward their shed thresholds. It extends the single-device injection
// kinds with the failure mode only a serving fleet can express.
type ShardFault struct {
	// At is the virtual time the burst starts and Dur its length.
	At  time.Duration `json:"at_ns"`
	Dur time.Duration `json:"dur_ns"`
}

func (f ShardFault) String() string {
	return fmt.Sprintf("burst-overload at=%v dur=%v", f.At, f.Dur)
}

// ShardFaultPlan scripts a deterministic fleet fault schedule: two to
// four burst windows inside the horizon, a pure function of (seed,
// horizon) and independent of worker count. Windows may overlap.
// Events are sorted by time.
func ShardFaultPlan(seed uint64, horizon time.Duration) []ShardFault {
	if horizon <= 0 {
		return nil
	}
	r := newRNG(MixSeed(seed, 0xF1EE7))
	plan := make([]ShardFault, 2+r.intn(3))
	for i := range plan {
		at := time.Duration(r.intn(int(horizon*9/10)/int(time.Millisecond)+1)) * time.Millisecond
		dur := horizon/20 + time.Duration(r.intn(int(horizon/20)/int(time.Millisecond)+1))*time.Millisecond
		plan[i] = ShardFault{At: at, Dur: dur}
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].At < plan[j].At })
	return plan
}
