package core

import "math/bits"

// OCU models the hardware Overflow Checking Unit attached to each integer
// ALU lane (paper §VII, Fig. 10). The OCU watches pointer-arithmetic
// instructions — identified by the Activation hint bit in the instruction
// microcode — and verifies that the operation did not alter any address bit
// above the buffer's size class.
//
// The hardware consists of a 2:1 operand multiplexer (driven by the
// Selection hint bit), a mask generator keyed by the extent field, a 64-bit
// XOR, a 64-bit AND, a zero comparator, and extent-clear logic. Check
// reproduces that datapath exactly.
//
// On overflow the OCU does not raise a fault; it clears the result's extent
// bits so the Extent Checker in the LSU faults only if the out-of-bounds
// pointer is actually dereferenced. This "delayed termination" avoids false
// positives from the ubiquitous one-past-the-end loop idiom (§XII-A,
// Fig. 14).
type OCU struct {
	// Codec configures the pointer format.
	Codec Codec

	// Stats accumulates check activity (one OCU per thread lane in
	// hardware; a single counter set suffices in simulation).
	Stats OCUStats
}

// OCUStats counts OCU activity.
type OCUStats struct {
	// Checks is the number of pointer-arithmetic operations verified.
	Checks uint64
	// Overflows is the number of checks that detected modification of
	// unmodifiable bits and cleared the result's extent.
	Overflows uint64
	// InvalidIn is the number of checks whose input pointer was already
	// invalid (extent zero); the result stays invalid.
	InvalidIn uint64
}

// NewOCU returns an OCU using the default pointer codec.
func NewOCU() *OCU { return &OCU{Codec: DefaultCodec} }

// Check runs the OCU datapath for one hinted integer-ALU operation.
//
// in is the source operand selected by the S hint bit (the operand holding
// the pointer); out is the raw ALU result. Check returns the value the ALU
// actually writes back: out unchanged when the operation stayed within the
// buffer, or out with its extent cleared when any unmodifiable or extent
// bit changed (delayed termination). overflow reports whether clearing
// occurred.
func (o *OCU) Check(in, out Pointer) (result Pointer, overflow bool) {
	o.Stats.Checks++
	e := in.Extent()
	if e == ExtentInvalid {
		// A dead pointer stays dead: arithmetic on an invalidated pointer
		// produces an invalidated pointer (extent field of `in` is zero, so
		// any extent bits present in `out` came from the arithmetic itself
		// and are cleared).
		o.Stats.InvalidIn++
		return out.Invalidate(), false
	}
	// Mask generator: modifiable bits for this size class. All bits above
	// the mask (UM bits and the extent field) must be preserved.
	mask := o.Codec.ModifiableMask(e)
	// XOR identifies bits changed by the arithmetic; AND with the
	// complement of the modifiable mask isolates illegal changes.
	changed := (uint64(in) ^ uint64(out)) &^ mask
	if changed == 0 {
		return out, false
	}
	o.Stats.Overflows++
	return out.Invalidate(), true
}

// CheckRow runs Check on each lane of exec, in ascending order, for one
// hinted warp instruction: in holds each lane's source operand and out
// its raw result, overwritten with the value the ALU writes back. Lanes
// outside exec are untouched. A full warp stepping through one buffer —
// every pointer carrying the same valid extent, and the lanes' changed
// bits, ORed together, all inside that extent's mask — is judged with
// one mask for the 32 lanes; its outcome and statistics are those of
// the 32 checks.
func (o *OCU) CheckRow(in, out *[32]uint64, exec uint32) {
	if exec == 1<<32-1 && o.rowInBounds(in, out) {
		o.Stats.Checks += 32
		return
	}
	for ; exec != 0; exec &= exec - 1 {
		l := bits.TrailingZeros32(exec)
		res, _ := o.Check(Pointer(in[l]), Pointer(out[l]))
		out[l] = uint64(res)
	}
}

// rowInBounds reports whether all 32 lanes' pointers share one valid
// extent and no lane changed a bit above its modifiable mask.
func (o *OCU) rowInBounds(in, out *[32]uint64) bool {
	changed, some, every := uint64(0), uint64(0), ^uint64(0)
	for l := range in {
		changed |= in[l] ^ out[l]
		some |= in[l]
		every &= in[l]
	}
	e := Pointer(some).Extent()
	return e != ExtentInvalid && e == Pointer(every).Extent() && changed&^o.Codec.ModifiableMask(e) == 0
}

// CheckMove runs the OCU for a register move of a pointer (e.g. IMOV with
// the activation bit set). A faithful move never changes any bit, so this
// is the degenerate case of Check; it exists to mirror the paper's list of
// verified instructions (§IV-A2 names IADD and IMOV).
func (o *OCU) CheckMove(in Pointer) Pointer {
	res, _ := o.Check(in, in)
	return res
}
