package safety

import (
	"math/bits"
	"sync"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// IMT pointer-tag geometry: a 4-bit tag in bits [56:53] (MTE-style).
const (
	imtTagShift = 53
	imtTagMask  = uint64(0xF) << imtTagShift
	imtAddrMask = ^imtTagMask
	// imtSector is the tagging granule: IMT embeds tags in the ECC
	// codewords of 32-byte sectors.
	imtSector = 32
)

// IMT models Implicit Memory Tagging (Sullivan et al., ISCA 2023; paper
// §II-D, Table II): memory tags stored "for free" in spare ECC bits of
// global-memory sectors, compared against a 4-bit tag in the pointer's
// upper bits on every access.
//
// The paper does not benchmark IMT (it requires ECC, absent on consumer
// GPUs) — this implementation exists as an executable extension so the
// Table II comparison row can be exercised: fine-grained global
// protection, no shared/local/heap coverage, probabilistic temporal
// safety via tag washing on free, and no metadata storage (the ECC bits
// are modelled as a side map the timing model never touches, because
// fetching them costs nothing extra by construction).
type IMT struct {
	mu      sync.Mutex
	nextTag uint64
	sectors map[uint64]uint8 // sector index -> tag
	// Stats counts checks and mismatches.
	Stats struct {
		Checks, Mismatches uint64
	}
}

// NewIMT builds the mechanism.
func NewIMT() *IMT {
	return &IMT{sectors: make(map[uint64]uint8)}
}

// Name implements sim.Mechanism.
func (m *IMT) Name() string { return "imt" }

// AllocPolicy implements sim.Mechanism: stock allocation (ECC tags do
// not constrain layout).
func (m *IMT) AllocPolicy() alloc.Policy { return alloc.PolicyBase }

func (m *IMT) paint(base, size uint64, tag uint8) {
	for s := base / imtSector; s <= (base+size-1)/imtSector; s++ {
		m.sectors[s] = tag
	}
}

// TagAlloc implements sim.Mechanism: global buffers get a nonzero 4-bit
// tag, and their sectors' ECC tags are painted to match. Alias-freedom
// between adjacent buffers comes from cycling tags.
func (m *IMT) TagAlloc(b alloc.Block, space isa.Space) (uint64, error) {
	if space != isa.SpaceGlobal {
		return b.Addr, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTag++
	tag := uint8(m.nextTag%15) + 1
	m.paint(b.Addr, b.Reserved, tag)
	return b.Addr | uint64(tag)<<imtTagShift, nil
}

// UntagFree implements sim.Mechanism: freeing washes the buffer's tags
// back to zero, so stale pointers mismatch until the memory is
// reassigned a colliding tag — IMT's probabilistic temporal safety.
func (m *IMT) UntagFree(val uint64, space isa.Space) uint64 {
	if space != isa.SpaceGlobal {
		return val
	}
	// The caller frees by base pointer; wash one sector at minimum (the
	// allocator knows the size; we wash lazily on reuse via repainting).
	m.mu.Lock()
	m.sectors[(val&imtAddrMask)/imtSector] = 0
	m.mu.Unlock()
	return val & imtAddrMask
}

// Canonical implements sim.Mechanism.
func (m *IMT) Canonical(val uint64) uint64 { return val & imtAddrMask }

// CheckPointerOp implements sim.Mechanism: memory tagging does not
// verify arithmetic.
func (m *IMT) CheckPointerOp(_, _ *[32]uint64, _ uint32) uint64 { return 0 }

// CheckAccess implements sim.Mechanism: compare each lane's pointer tag
// against its sector's ECC tag. Untagged pointers (heap, local spill
// pointers) pass unchecked; non-global spaces are unprotected.
func (m *IMT) CheckAccess(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	if a.Space != isa.SpaceGlobal {
		return 0, -1, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for ; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros32(lanes)
		ptr := a.Addr[l]
		tag := uint8((ptr & imtTagMask) >> imtTagShift)
		eff := ptr & imtAddrMask
		if tag != 0 {
			m.Stats.Checks++
			if m.sectors[eff/imtSector] != tag {
				m.Stats.Mismatches++
				return 0, l, core.NewFault(core.FaultSpatial, core.Pointer(ptr), eff,
					"imt: pointer/ECC tag mismatch")
			}
		}
		a.Addr[l] = eff
	}
	return 0, -1, nil
}

// Reset implements sim.Mechanism.
func (m *IMT) Reset() {}
