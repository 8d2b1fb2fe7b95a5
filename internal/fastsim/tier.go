// Package fastsim is the compiled fast-path execution tier: a compiler
// from isa.Program to basic-block-level Go closures plus a functional
// warp-level engine. Each instruction is decoded exactly once, at
// compile time — operand routing (register vs immediate form, RZ
// hardwiring) resolves every operand to a row of the register-major
// warp register file via the ISA's ImmSrcIndex/WritesDst tables, so an
// ALU instruction runs its isa kernel (shared with the cycle simulator)
// over 32 lanes — and the extent-check predicate is hoisted out of the
// access path using the E/A/S microcode hint bits (bits 29/28/27): an
// E-hinted access compiles to the elided (canonicalise-only) closure, an
// A-hinted integer op to the OCU-checked closure, and everything else to
// the plain closure.
//
// Both tiers run one warp semantics: the ALU kernels of internal/isa,
// and sim.Exec's launch prelude and epilogue, SIMT stack, special
// registers, OCU site, LDC, EC site, memory lane kernels, heap
// intrinsics, TRAP and fault records. The cycle-level simulator
// (internal/sim) remains the only timing model.
// The compiled tier reproduces the *functional* projection of a launch
// exactly — instruction and lane-instruction counts, per-opcode
// memory-instruction counts, PointerChecks, ECChecked/ECElided, fault
// records (location and fault content), halt status, and all
// guest-visible memory — while replacing the per-cycle scheduling,
// scoreboard, and cache hierarchy with block-level dispatch and a
// deterministic per-warp time estimate. KernelStats fields that only
// the timing model defines (Cycles, L1/L2/DRAM counters, FaultRecord
// cycle stamps) are estimates or zero; the differential gate
// (internal/fastsim tests, scripts/check.sh) compares the functional
// projection across tiers over the full workload and chaos corpora.
package fastsim

import (
	"context"
	"fmt"

	"lmi/internal/isa"
	"lmi/internal/sim"
)

// Tier selects the execution engine a kernel launch runs on.
type Tier int

const (
	// TierCycle is the cycle-level simulator (the reference oracle and
	// timing model).
	TierCycle Tier = iota
	// TierCompiled is the compiled fast-path tier defined by this
	// package.
	TierCompiled
)

// TierNames lists the accepted -tier flag spellings, in declaration
// order (feeds cliutil.EnumCheck on every CLI's flag surface).
func TierNames() []string { return []string{"cycle", "compiled"} }

// String returns the tier's flag spelling.
func (t Tier) String() string {
	switch t {
	case TierCycle:
		return "cycle"
	case TierCompiled:
		return "compiled"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// ParseTier parses a -tier flag value.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "cycle":
		return TierCycle, nil
	case "compiled":
		return TierCompiled, nil
	default:
		return 0, fmt.Errorf("fastsim: unknown tier %q (want cycle | compiled)", s)
	}
}

// LaunchTierCtx launches a kernel on the selected tier: the cycle
// simulator's LaunchCtx, or a fresh compile-and-run on the compiled
// tier. It is the single dispatch point the runner, chaos, serving, and
// CLI layers go through.
func LaunchTierCtx(ctx context.Context, tier Tier, dev *sim.Device, p *isa.Program, gridDim, blockDim int, params []uint64) (*sim.KernelStats, error) {
	if tier == TierCycle {
		return dev.LaunchCtx(ctx, p, gridDim, blockDim, params)
	}
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	return c.LaunchCtx(ctx, dev, gridDim, blockDim, params)
}
