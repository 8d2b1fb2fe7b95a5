// Package safety implements the memory-safety mechanisms evaluated in the
// paper as sim.Mechanism plug-ins: LMI itself (§IV–§VIII), the
// hardware baseline GPUShield (region-based bounds checking with a
// per-SM RCache), and software Baggy Bounds (which shares LMI's aligned
// allocation but performs its checks with injected instructions).
//
// Detection-only models used exclusively by the Table III security suite
// (GMOD's canary, cuCatch's shadow tags) live in internal/sectest, since
// they are scored against scenario descriptions rather than run
// cycle-by-cycle.
package safety

import (
	"math/bits"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// OCULatencyCycles is the extra dependent latency of an OCU-checked
// pointer operation: the two register slices inserted to close timing at
// 3 GHz give the bounds-checking logic a three-cycle delay (§XI-C).
const OCULatencyCycles = 3

// LMI is the paper's mechanism: in-pointer extent metadata over
// 2^n-aligned allocation, verified by the OCU on every hinted pointer
// operation and by the EC at every dereference.
//
// Programs run under LMI must be compiled with compiler.ModeLMI so that
// allocations are tagged, stack/shared pointers carry extents, and the
// hint bits are present.
type LMI struct {
	// Codec is the pointer format.
	Codec core.Codec
	// OCU and EC are the hardware checking units.
	OCU *core.OCU
	EC  *core.EC
	// Tracker, when non-nil, enables the §XII-C pointer-liveness
	// extension (copied-pointer UAF detection).
	Tracker *core.LivenessTracker
}

// NewLMI builds the standard LMI mechanism (no liveness tracking).
func NewLMI() *LMI {
	return &LMI{Codec: core.DefaultCodec, OCU: core.NewOCU(), EC: core.NewEC()}
}

// NewLMIWithTracking builds LMI with the Algorithm 1 liveness extension.
// Tracking is scoped to allocator-managed memory (global + device heap):
// Algorithm 1 hooks malloc/free, so stack and shared buffers are outside
// its membership table.
func NewLMIWithTracking(pageInvalidOpt bool) *LMI {
	m := NewLMI()
	m.Tracker = core.NewLivenessTracker(pageInvalidOpt)
	m.Tracker.Scope = func(addr uint64) bool { return addr >= alloc.GlobalBase }
	m.EC.Tracker = m.Tracker
	return m
}

// Name implements sim.Mechanism.
func (m *LMI) Name() string { return "lmi" }

// AllocPolicy implements sim.Mechanism: LMI requires 2^n-aligned
// allocation.
func (m *LMI) AllocPolicy() alloc.Policy { return alloc.PolicyPow2 }

// TagAlloc implements sim.Mechanism: install the extent into the upper
// bits of the returned pointer (§V-B). A block the codec cannot encode
// (the allocator contract was violated) comes back as a *TagError.
func (m *LMI) TagAlloc(b alloc.Block, _ isa.Space) (uint64, error) {
	p, err := m.Codec.Encode(b.Addr, b.Extent)
	if err != nil {
		return 0, &TagError{Mechanism: m.Name(), Addr: b.Addr, Reserved: b.Reserved, Err: err}
	}
	if m.Tracker != nil {
		m.Tracker.OnAlloc(p)
	}
	return uint64(p), nil
}

// UntagFree implements sim.Mechanism: strip the extent and record the
// free for liveness tracking. (The pointer register itself is nullified
// by compiler-inserted instructions, §VIII.)
func (m *LMI) UntagFree(val uint64, _ isa.Space) uint64 {
	p := core.Pointer(val)
	if m.Tracker != nil {
		m.Tracker.OnFree(p)
	}
	return p.Addr()
}

// Canonical implements sim.Mechanism: strip the extent bits.
func (m *LMI) Canonical(val uint64) uint64 { return core.Pointer(val).Addr() }

// CheckPointerOp implements sim.Mechanism: the OCU datapath of each
// exec lane, with the three-cycle register-slice latency.
func (m *LMI) CheckPointerOp(ptr, res *[32]uint64, exec uint32) uint64 {
	if exec == 0 {
		return 0
	}
	m.OCU.CheckRow(ptr, res, exec)
	return OCULatencyCycles
}

// CheckAccess implements sim.Mechanism: the EC check, lane by lane. The
// extent bits are stripped to form the effective address; a zero extent
// faults. The EC is per-lane hardware, so it charges no extra cycles.
func (m *LMI) CheckAccess(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	for ; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros32(lanes)
		p := core.Pointer(a.Addr[l])
		if f := m.EC.CheckAccess(p, a.Size); f != nil {
			return 0, l, f
		}
		a.Addr[l] = p.Addr()
	}
	return 0, -1, nil
}

// Reset implements sim.Mechanism. OCU/EC statistics accumulate across a
// device's lifetime (they are reported per experiment, not per launch).
func (m *LMI) Reset() {}
