package sim

import (
	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
)

// WarpAccess describes one warp memory instruction's accesses, passed
// to the mechanism's LSU hook (the EC site). The EC sits in the LSU and
// sees the whole warp instruction at once (§VII, Fig. 10).
type WarpAccess struct {
	// SM is the SM index (mechanisms may keep per-SM state, e.g.
	// GPUShield's RCache).
	SM int
	// Space is the memory space being accessed.
	Space isa.Space
	// Size is the access size in bytes.
	Size uint64
	// Store reports whether the access writes memory.
	Store bool
	// Cycle is the current simulation cycle.
	Cycle uint64
	// Coalesced has bit l set when lane l's access fell in the same
	// memory transaction as the previous exec lane's: the caller judges
	// it on raw (possibly tagged) pointer lines over every exec lane,
	// lanes that go on to fault included. Mechanisms whose
	// per-transaction structures are stressed by uncoalesced access use
	// it.
	Coalesced uint32
	// Addr holds each lane's raw register value used as the address
	// (possibly tagged). The hook overwrites every lane it passes with
	// the effective address the memory system should use (tag bits
	// stripped).
	Addr [32]uint64
}

// Mechanism is a pluggable memory-safety mechanism. The simulator invokes
// it at the three LMI lifecycle sites: pointer generation (allocation
// hooks), pointer update (the integer-ALU hook = the OCU site), and
// pointer dereference (the LSU hook = the EC site).
//
// A mechanism also dictates the allocator policy so that pointer tagging
// and 2^n alignment stay consistent with the runtime.
type Mechanism interface {
	// Name identifies the mechanism in reports.
	Name() string

	// AllocPolicy selects the allocator rounding/alignment discipline.
	AllocPolicy() alloc.Policy

	// TagAlloc converts a fresh allocation into the register/parameter
	// value handed to the program (e.g. LMI installs the extent bits). A
	// block the mechanism cannot tag (mis-rounded size, misaligned base —
	// allocator contract violations) is reported as an error rather than
	// a panic, so corrupted allocator state surfaces as a failed Malloc
	// instead of killing the process.
	TagAlloc(b alloc.Block, space isa.Space) (uint64, error)

	// UntagFree recovers the allocator-visible base address from the
	// value passed to free(), and may record temporal-safety state.
	UntagFree(val uint64, space isa.Space) uint64

	// Canonical strips all tag bits from a pointer value without side
	// effects (used by host-side memory copies).
	Canonical(val uint64) uint64

	// CheckPointerOp is the integer-ALU hook, called once per warp
	// instruction carrying the Activation hint. ptr is the row of the
	// pointer operand the S hint selects and res the row of results the
	// ALU computed (narrowed already for a 32-bit op). For each lane of
	// exec, in ascending order, it overwrites res with the value actually
	// written back, leaving every other lane untouched. It returns the
	// largest extra dependent latency of the lanes it checked (LMI's OCU
	// register slices), 0 for an empty exec.
	CheckPointerOp(ptr, res *[32]uint64, exec uint32) (extraLatency uint64)

	// CheckAccess is the LSU hook, called once per warp memory
	// instruction with the exec lanes still to check. It checks them in
	// ascending order, writing each passed lane's effective address into
	// a.Addr, and stops at the first lane whose access must be
	// suppressed: it returns that lane and its fault, or lane -1 and a
	// nil fault when every lane passed. extra is the cycles charged to
	// the lanes it checked, the faulting one included. The caller
	// records the fault and, unless the launch halted, calls again with
	// the lanes above it, so statistics, per-SM state and the fault
	// order are those of a lane-by-lane check.
	CheckAccess(a *WarpAccess, lanes uint32) (extra uint64, lane int, fault *core.Fault)

	// Reset clears per-kernel microarchitectural state (caches, stats)
	// before a launch.
	Reset()
}

// Baseline is the no-protection mechanism: stock allocator, no tagging,
// no checks. It is the normalisation baseline of Figs. 12 and 13.
type Baseline struct{}

// Name implements Mechanism.
func (Baseline) Name() string { return "baseline" }

// AllocPolicy implements Mechanism.
func (Baseline) AllocPolicy() alloc.Policy { return alloc.PolicyBase }

// TagAlloc implements Mechanism.
func (Baseline) TagAlloc(b alloc.Block, _ isa.Space) (uint64, error) { return b.Addr, nil }

// UntagFree implements Mechanism.
func (Baseline) UntagFree(val uint64, _ isa.Space) uint64 { return val }

// Canonical implements Mechanism.
func (Baseline) Canonical(val uint64) uint64 { return val }

// CheckPointerOp implements Mechanism.
func (Baseline) CheckPointerOp(_, _ *[32]uint64, _ uint32) uint64 { return 0 }

// CheckAccess implements Mechanism: every address is already effective.
func (Baseline) CheckAccess(*WarpAccess, uint32) (uint64, int, *core.Fault) { return 0, -1, nil }

// Reset implements Mechanism.
func (Baseline) Reset() {}
