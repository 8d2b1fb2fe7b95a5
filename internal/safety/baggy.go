package safety

import (
	"math/bits"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// Baggy is the software Baggy Bounds Checking baseline "naively adapted
// to GPUs" (§X-A, §XI-A). It shares LMI's 2^n-aligned allocation and
// in-pointer extent tagging, but performs no hardware checks: the bounds
// checks are SASS instruction sequences injected after every pointer
// operation by compiler.InstrumentBaggy, and violations surface as TRAP
// faults.
//
// Programs run under Baggy are compiled with compiler.ModeLMI (for
// tagging and the A/S markers the instrumenter consumes) and then passed
// through InstrumentBaggy, which strips the hints.
type Baggy struct {
	// Codec is the pointer format shared with LMI.
	Codec core.Codec
}

// NewBaggy builds the software baseline.
func NewBaggy() *Baggy { return &Baggy{Codec: core.DefaultCodec} }

// Name implements sim.Mechanism.
func (b *Baggy) Name() string { return "baggybounds" }

// AllocPolicy implements sim.Mechanism.
func (b *Baggy) AllocPolicy() alloc.Policy { return alloc.PolicyPow2 }

// TagAlloc implements sim.Mechanism: identical tagging to LMI — the
// injected software sequence reads the extent from the pointer.
func (b *Baggy) TagAlloc(blk alloc.Block, _ isa.Space) (uint64, error) {
	p, err := b.Codec.Encode(blk.Addr, blk.Extent)
	if err != nil {
		return 0, &TagError{Mechanism: b.Name(), Addr: blk.Addr, Reserved: blk.Reserved, Err: err}
	}
	return uint64(p), nil
}

// UntagFree implements sim.Mechanism.
func (b *Baggy) UntagFree(val uint64, _ isa.Space) uint64 {
	return core.Pointer(val).Addr()
}

// Canonical implements sim.Mechanism.
func (b *Baggy) Canonical(val uint64) uint64 { return core.Pointer(val).Addr() }

// CheckPointerOp implements sim.Mechanism: no hardware OCU — checks are
// software instructions already present in the instruction stream.
func (b *Baggy) CheckPointerOp(_, _ *[32]uint64, _ uint32) uint64 { return 0 }

// CheckAccess implements sim.Mechanism: the LSU strips the extent bits
// (the addressing path must ignore the tag) but performs no check.
func (b *Baggy) CheckAccess(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	for ; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros32(lanes)
		a.Addr[l] = core.Pointer(a.Addr[l]).Addr()
	}
	return 0, -1, nil
}

// Reset implements sim.Mechanism.
func (b *Baggy) Reset() {}
