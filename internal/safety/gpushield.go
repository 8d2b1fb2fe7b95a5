package safety

import (
	"fmt"
	"math/bits"
	"sync"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/mem"
	"lmi/internal/sim"
)

// GPUShield pointer-tag geometry: an 11-bit buffer ID in bits [58:48] of
// global-buffer pointers (GPUShield stores tags "in unused upper bits in
// pointers ... for buffers passed through kernel arguments").
const (
	shieldIDShift  = 48
	shieldIDMask   = uint64(0x7FF) << shieldIDShift
	shieldAddrMask = uint64(1)<<shieldIDShift - 1
)

// GPUShield models the region-based hardware bounds-checking baseline
// (Lee et al., ISCA 2022; paper §II-D, §IV-D, §X-A):
//
//   - global buffers allocated through cudaMalloc get a buffer ID in the
//     pointer's upper bits and an entry in a per-kernel bounds table;
//   - every global access looks its bounds entry up through a small
//     per-SM RCache; an RCache miss fetches the entry from memory. The
//     RCache's reach is far below the L1 data cache's, so uncoalesced
//     workloads whose lines hit in the 96 KB L1 still miss in the RCache —
//     the effect behind GPUShield's needle/LSTM outliers (§XI-A);
//   - heap and local (stack) memory are protected as single regions
//     (§IV-D): overflows within the region go undetected, only accesses
//     leaving the region fault;
//   - shared memory and temporal safety are unprotected.
//
// Programs run under GPUShield are compiled with compiler.ModeBase; the
// mechanism needs no hint bits.
type GPUShield struct {
	// RCacheEntries is the per-SM RCache capacity in bounds entries
	// (ID-indexed, fully associative).
	RCacheEntries int
	// MissPenalty is the bounds-table memory-fetch latency on an RCache
	// miss.
	MissPenalty uint64
	// TxLookupCost is the serialization cost of one bounds lookup: the
	// RCache is a shared per-SM structure, so each lookup queues behind
	// the previous one. A tagged lane whose raw line equals the previous
	// exec lane's shares that lane's lookup; every other tagged lane, the
	// warp's first included, pays one. A fully coalesced warp access
	// therefore pays one lookup per line it touches and a 32-way
	// uncoalesced one pays 32, which is the microarchitectural effect
	// behind GPUShield's needle/LSTM outliers ("L1 D$ hits and L1 R$
	// misses frequently for uncoalesced memory operations", §XI-A).
	TxLookupCost uint64

	mu      sync.Mutex
	nextID  uint64
	bounds  []shieldBounds // indexed by buffer ID
	rcaches []*mem.Cache   // indexed by SM, nil until the SM's first lookup

	// Stats counts RCache behaviour across SMs.
	Stats struct {
		Lookups, Misses uint64
	}
}

// shieldBounds is one bounds-table entry: the buffer [base, limit), and
// whether the ID was ever allocated.
type shieldBounds struct {
	base, limit uint64
	ok          bool
}

// NewGPUShield builds the baseline with its default geometry: a 64-entry
// ID-indexed RCache per SM, a 200-cycle bounds-table fetch on a miss, and
// a 16-cycle serialization cost per bounds lookup.
func NewGPUShield() *GPUShield {
	return &GPUShield{
		RCacheEntries: 64,
		MissPenalty:   200,
		TxLookupCost:  16,
	}
}

// Name implements sim.Mechanism.
func (g *GPUShield) Name() string { return "gpushield" }

// AllocPolicy implements sim.Mechanism: stock allocation.
func (g *GPUShield) AllocPolicy() alloc.Policy { return alloc.PolicyBase }

// TagAlloc implements sim.Mechanism: global buffers get an ID and a
// bounds-table entry; heap buffers stay untagged (region-based).
func (g *GPUShield) TagAlloc(b alloc.Block, space isa.Space) (uint64, error) {
	if space != isa.SpaceGlobal {
		return b.Addr, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextID++
	id := g.nextID & 0x7FF
	if id == 0 {
		id = 1
	}
	if int(id) >= len(g.bounds) {
		g.bounds = append(g.bounds, make([]shieldBounds, int(id)+1-len(g.bounds))...)
	}
	g.bounds[id] = shieldBounds{b.Addr, b.Addr + b.Reserved, true}
	return b.Addr | id<<shieldIDShift, nil
}

// UntagFree implements sim.Mechanism. The bounds entry is deliberately
// NOT invalidated: GPUShield "does not support temporal safety" (§II-D),
// so a stale pointer still passes its per-buffer check after the free.
func (g *GPUShield) UntagFree(val uint64, space isa.Space) uint64 {
	if space != isa.SpaceGlobal {
		return val
	}
	return val & shieldAddrMask
}

// Canonical implements sim.Mechanism: strip the buffer-ID bits.
func (g *GPUShield) Canonical(val uint64) uint64 { return val & shieldAddrMask }

// CheckPointerOp implements sim.Mechanism: GPUShield does not verify
// pointer arithmetic.
func (g *GPUShield) CheckPointerOp(_, _ *[32]uint64, _ uint32) uint64 { return 0 }

// rcache returns the SM's bounds cache: ID-indexed, modelled as a
// fully-associative cache whose "addresses" are buffer IDs.
func (g *GPUShield) rcache(smID int) *mem.Cache {
	if smID >= len(g.rcaches) {
		g.rcaches = append(g.rcaches, make([]*mem.Cache, smID+1-len(g.rcaches))...)
	}
	rc := g.rcaches[smID]
	if rc == nil {
		entries := g.RCacheEntries
		if entries < 1 {
			entries = 1
		}
		// entries sets of one 1-byte line each: always a valid geometry.
		rc, _ = mem.NewCache(fmt.Sprintf("rcache%d", smID), uint64(entries), entries, 1, 0)
		g.rcaches[smID] = rc
	}
	return rc
}

// CheckAccess implements sim.Mechanism.
func (g *GPUShield) CheckAccess(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	switch a.Space {
	case isa.SpaceGlobal:
		return g.checkGlobal(a, lanes)
	case isa.SpaceLocal:
		// Region-based stack protection: the access must stay within the
		// per-thread local window.
		for ; lanes != 0; lanes &= lanes - 1 {
			l := bits.TrailingZeros32(lanes)
			if ptr := a.Addr[l]; ptr >= alloc.StackTop {
				return 0, l, core.NewFault(core.FaultSpatial, core.Pointer(ptr), ptr,
					"gpushield: access outside local region")
			}
		}
		return 0, -1, nil
	default:
		return 0, -1, nil
	}
}

// checkGlobal is CheckAccess for global memory, under one hold of the
// lock for the whole warp instruction.
func (g *GPUShield) checkGlobal(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var (
		extra uint64
		rc    *mem.Cache
	)
	for ; lanes != 0; lanes &= lanes - 1 {
		l := bits.TrailingZeros32(lanes)
		ptr := a.Addr[l]
		id := (ptr & shieldIDMask) >> shieldIDShift
		eff := ptr & shieldAddrMask
		if id == 0 {
			// Untagged pointer (e.g. device heap): region-based check
			// over the combined global/heap arenas.
			if !inRegion(eff, alloc.GlobalBase, alloc.GlobalLimit) &&
				!inRegion(eff, alloc.HeapBase, alloc.HeapLimit) {
				return extra, l, core.NewFault(core.FaultSpatial, core.Pointer(ptr), eff,
					"gpushield: access outside heap/global region")
			}
			a.Addr[l] = eff
			continue
		}
		// One bounds lookup per lane whose raw line differs from the
		// previous exec lane's: a lane coalesced into that line shares
		// its lookup. Lookups serialize at the shared RCache port; a
		// capacity miss fetches the bounds entry from memory.
		if a.Coalesced&(1<<l) == 0 {
			if rc == nil {
				rc = g.rcache(a.SM)
			}
			g.Stats.Lookups++
			extra += g.TxLookupCost
			if !rc.Access(id) {
				g.Stats.Misses++
				extra += g.MissPenalty
			}
		}
		var bd shieldBounds
		if id < uint64(len(g.bounds)) {
			bd = g.bounds[id]
		}
		if !bd.ok {
			return extra, l, core.NewFault(core.FaultSpatial, core.Pointer(ptr), eff,
				"gpushield: stale buffer ID")
		}
		if eff < bd.base || eff+a.Size > bd.limit {
			return extra, l, core.NewFault(core.FaultSpatial, core.Pointer(ptr), eff,
				"gpushield: per-buffer bounds violation")
		}
		a.Addr[l] = eff
	}
	return extra, -1, nil
}

func inRegion(addr, lo, hi uint64) bool { return addr >= lo && addr < hi }

// Reset implements sim.Mechanism: clear per-kernel RCache state.
func (g *GPUShield) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, rc := range g.rcaches {
		if rc != nil {
			rc.Reset()
		}
	}
}
