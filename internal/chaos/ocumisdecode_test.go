package chaos

import (
	"testing"

	"lmi/internal/sim"
)

// ocuRecorder is the mechanism under an ocuMisdecode wrapper: it records
// the exec mask of every pointer check it receives and marks each lane
// it checks by writing ptr ^ 0xC into the result row.
type ocuRecorder struct {
	sim.Baseline
	masks []uint32
}

func (r *ocuRecorder) CheckPointerOp(ptr, res *[32]uint64, exec uint32) uint64 {
	r.masks = append(r.masks, exec)
	if exec == 0 {
		return 0
	}
	for l := 0; l < 32; l++ {
		if exec&(1<<l) != 0 {
			res[l] = ptr[l] ^ 0xC
		}
	}
	return 3
}

// TestOCUMisdecodeSkipSequence pins the row form of the misdecode
// wrapper to the per-lane call sequence: the call index advances once
// per exec lane in ascending lane order, a lane whose index the seed
// skips keeps its raw result and adds no latency, and the other exec
// lanes reach the wrapped mechanism in one call. With seed 7 the
// per-lane form skips calls 6, 14, 29, 30, 33, 36, 39, 40, 41, 45, 46
// and 48 (splitmix64(7 ^ splitmix64(i+1)) % 8 == 0).
func TestOCUMisdecodeSkipSequence(t *testing.T) {
	rec := &ocuRecorder{}
	o := &ocuMisdecode{Mechanism: rec, seed: 7}
	var ptr [32]uint64
	for l := range ptr {
		ptr[l] = 0x1000 + uint64(l)
	}
	raw := func(l int) uint64 { return 0x5000 + uint64(l) }
	steps := []struct {
		cycle   uint64 // a CheckAccess cycle stamp before the call; 0 for none
		exec    uint32
		skipped uint32 // exec lanes the wrapper must skip
		extra   uint64
		calls   uint64
		skips   uint64
		inject  uint64
	}{
		// Calls 0-7, lanes 0-7: call 6 is lane 6.
		{cycle: 100, exec: 0xFF, skipped: 1 << 6, extra: 3, calls: 8, skips: 1, inject: 100},
		// Calls 8-15 over the odd lanes 1-15: call 14 is lane 13. The
		// injection cycle stays that of the first skip.
		{cycle: 200, exec: 0xAAAA, skipped: 1 << 13, extra: 3, calls: 16, skips: 2, inject: 100},
		// No lanes: no call index, nothing forwarded, no latency.
		{exec: 0, calls: 16, skips: 2, inject: 100},
		// Calls 16-47 over the full warp: lane l is call 16+l.
		{exec: ^uint32(0), extra: 3, calls: 48, skips: 11, inject: 100,
			skipped: 1<<13 | 1<<14 | 1<<17 | 1<<20 | 1<<23 | 1<<24 | 1<<25 | 1<<29 | 1<<30},
		// Call 48 is the only lane and skipped: the wrapped mechanism
		// gets an empty mask and the instruction no OCU latency.
		{exec: 1 << 31, skipped: 1 << 31, calls: 49, skips: 12, inject: 100},
	}
	for i, s := range steps {
		if s.cycle != 0 {
			o.CheckAccess(&sim.WarpAccess{Cycle: s.cycle}, 0)
		}
		var res [32]uint64
		for l := range res {
			res[l] = raw(l)
		}
		extra := o.CheckPointerOp(&ptr, &res, s.exec)
		forwarded := s.exec &^ s.skipped
		if extra != s.extra {
			t.Errorf("step %d: extra latency %d, want %d", i, extra, s.extra)
		}
		if len(rec.masks) != i+1 || rec.masks[i] != forwarded {
			t.Fatalf("step %d: wrapped mechanism calls %#x, want one more with %#x", i, rec.masks, forwarded)
		}
		for l := range res {
			want := raw(l)
			if forwarded&(1<<l) != 0 {
				want = ptr[l] ^ 0xC
			}
			if res[l] != want {
				t.Errorf("step %d: lane %d result %#x, want %#x", i, l, res[l], want)
			}
		}
		if o.calls != s.calls || o.skips != s.skips || o.injectCycle != s.inject || !o.injected {
			t.Errorf("step %d: calls %d skips %d injectCycle %d injected %v, want %d %d %d true",
				i, o.calls, o.skips, o.injectCycle, o.injected, s.calls, s.skips, s.inject)
		}
	}
}
