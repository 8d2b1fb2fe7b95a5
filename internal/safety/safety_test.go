package safety

import (
	"errors"
	"testing"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// Compile-time interface checks.
var (
	_ sim.Mechanism = (*LMI)(nil)
	_ sim.Mechanism = (*GPUShield)(nil)
	_ sim.Mechanism = (*Baggy)(nil)
)

// access is one lane's access for checkLane.
type access struct {
	SM        int
	Space     isa.Space
	Ptr, Size uint64
	Coalesced bool
}

// checkLane runs a mechanism's per-warp LSU hook on a warp access whose
// only lane is lane 0 and returns that lane's effective address, the
// extra cycles and the fault.
func checkLane(m sim.Mechanism, a access) (uint64, uint64, *core.Fault) {
	wa := sim.WarpAccess{SM: a.SM, Space: a.Space, Size: a.Size}
	wa.Addr[0] = a.Ptr
	if a.Coalesced {
		wa.Coalesced = 1
	}
	extra, lane, fault := m.CheckAccess(&wa, 1)
	if (fault == nil) != (lane == -1) {
		panic("CheckAccess: the lane and the fault disagree")
	}
	return wa.Addr[0], extra, fault
}

// TestWarpHookStopsAtFirstFault: each mechanism's per-warp hook checks
// the lanes it is given in ascending order, writes the passed lanes'
// effective addresses, and returns at the first faulting lane, leaving
// the lanes above it unchecked for the caller's next call.
func TestWarpHookStopsAtFirstFault(t *testing.T) {
	lmi := NewLMI()
	gs := NewGPUShield()
	imt := NewIMT()
	blk := alloc.Block{Addr: alloc.GlobalBase, Requested: 1024, Reserved: 1024, Extent: 3}
	for _, c := range []struct {
		m   sim.Mechanism
		bad func(ptr uint64) uint64 // turns a lane's good pointer into a faulting one
	}{
		{lmi, func(p uint64) uint64 { return uint64(core.Pointer(p).Invalidate()) }},
		{gs, func(p uint64) uint64 { return p + 4096 }},
		{imt, func(p uint64) uint64 { return p ^ 1<<(imtTagShift+3) }},
	} {
		val, err := c.m.TagAlloc(blk, isa.SpaceGlobal)
		if err != nil {
			t.Fatalf("%s: TagAlloc: %v", c.m.Name(), err)
		}
		wa := sim.WarpAccess{Space: isa.SpaceGlobal, Size: 4}
		for l := range wa.Addr {
			wa.Addr[l] = val + 4*uint64(l)
		}
		wa.Addr[5] = c.bad(wa.Addr[5])
		wa.Addr[9] = c.bad(wa.Addr[9])
		lanes := uint32(0xFFFF) &^ (1 << 2) // lanes 0-15 but 2
		_, lane, fault := c.m.CheckAccess(&wa, lanes)
		if lane != 5 || fault == nil {
			t.Fatalf("%s: first call stopped at lane %d (fault %v), want 5", c.m.Name(), lane, fault)
		}
		for _, l := range []int{0, 1, 3, 4} {
			if wa.Addr[l] != blk.Addr+4*uint64(l) {
				t.Errorf("%s: lane %d address %#x not made effective", c.m.Name(), l, wa.Addr[l])
			}
		}
		if wa.Addr[2] != val+8 || wa.Addr[6] != val+24 {
			t.Errorf("%s: a lane outside the call or above the fault was rewritten", c.m.Name())
		}
		_, lane, fault = c.m.CheckAccess(&wa, lanes&^(1<<6-1))
		if lane != 9 || fault == nil {
			t.Fatalf("%s: second call stopped at lane %d (fault %v), want 9", c.m.Name(), lane, fault)
		}
		_, lane, fault = c.m.CheckAccess(&wa, lanes&^(1<<10-1))
		if lane != -1 || fault != nil {
			t.Fatalf("%s: third call returned lane %d fault %v, want -1 and nil", c.m.Name(), lane, fault)
		}
		if wa.Addr[15] != blk.Addr+60 {
			t.Errorf("%s: lane 15 address %#x not made effective", c.m.Name(), wa.Addr[15])
		}
	}
	if lmi.EC.Stats.Checks != 15 || lmi.EC.Stats.Faults != 2 {
		t.Errorf("lmi EC stats %+v, want 15 checks and 2 faults", lmi.EC.Stats)
	}
	if imt.Stats.Checks != 15 || imt.Stats.Mismatches != 2 {
		t.Errorf("imt stats %+v, want 15 checks and 2 mismatches", imt.Stats)
	}
}

func TestLMITagUntagRoundTrip(t *testing.T) {
	m := NewLMI()
	b := alloc.Block{Addr: 0x1000_0000_0000 & ^uint64(1023), Requested: 900, Reserved: 1024, Extent: 3}
	val, err := m.TagAlloc(b, isa.SpaceGlobal)
	if err != nil {
		t.Fatalf("TagAlloc: %v", err)
	}
	p := core.Pointer(val)
	if p.Extent() != 3 || p.Addr() != b.Addr {
		t.Fatalf("tagged pointer %v", p)
	}
	if m.Canonical(val) != b.Addr {
		t.Error("Canonical")
	}
	if m.UntagFree(val, isa.SpaceHeap) != b.Addr {
		t.Error("UntagFree")
	}
	if m.Name() != "lmi" || m.AllocPolicy() != alloc.PolicyPow2 {
		t.Error("identity")
	}
	m.Reset() // no-op
}

func TestLMITagErrorsOnMisalignedBlock(t *testing.T) {
	_, err := NewLMI().TagAlloc(alloc.Block{Addr: 0x101, Reserved: 256, Extent: 1}, isa.SpaceGlobal)
	if err == nil {
		t.Fatal("misaligned block must error (allocator contract violation)")
	}
	var te *TagError
	if !errors.As(err, &te) || te.Mechanism != "lmi" || te.Addr != 0x101 {
		t.Errorf("want *TagError for lmi addr 0x101, got %#v", err)
	}
}

// checkPointerRow runs a mechanism's OCU hook on the exec lanes of a
// row whose every lane holds pointer in and, outside lanes, a sentinel:
// lane l of res holds out[l] for each l of out. It returns the result
// row and the extra latency.
func checkPointerRow(m sim.Mechanism, in uint64, exec uint32, out map[int]uint64) ([32]uint64, uint64) {
	var ptr, res [32]uint64
	for l := range res {
		ptr[l], res[l] = in, 0x5e5e0000+uint64(l)
	}
	for l, v := range out {
		res[l] = v
	}
	return res, m.CheckPointerOp(&ptr, &res, exec)
}

func TestLMICheckPointerOpDelaysAndClears(t *testing.T) {
	m := NewLMI()
	in, _ := m.Codec.Encode(0x40000, 1) // 256 B
	// Lane 0 stays in bounds, lane 2 steps past the extent; lane 1 is
	// outside the exec mask with an out-of-bounds value, which the OCU
	// must neither check nor clear.
	oob := uint64(in) + 4096
	res, lat := checkPointerRow(m, uint64(in), 0b101, map[int]uint64{0: uint64(in) + 128, 1: oob, 2: oob})
	if lat != OCULatencyCycles {
		t.Errorf("latency %d", lat)
	}
	if res[0] != uint64(in)+128 {
		t.Errorf("in-bounds op changed its result: %#x", res[0])
	}
	if res[2] != uint64(core.Pointer(oob).Invalidate()) {
		t.Errorf("out-of-bounds op: %#x, want its extent cleared", res[2])
	}
	if res[1] != oob {
		t.Errorf("lane outside the exec mask changed: %#x", res[1])
	}
	for l := 3; l < 32; l++ {
		if res[l] != 0x5e5e0000+uint64(l) {
			t.Errorf("lane %d outside the exec mask changed: %#x", l, res[l])
		}
	}
	if s := m.OCU.Stats; s.Checks != 2 || s.Overflows != 1 {
		t.Errorf("OCU stats %+v, want 2 checks and 1 overflow", s)
	}
	// An empty exec mask checks nothing and adds no latency.
	res, lat = checkPointerRow(m, uint64(in), 0, map[int]uint64{0: oob})
	if lat != 0 || res[0] != oob || m.OCU.Stats.Checks != 2 {
		t.Errorf("empty mask: latency %d, lane 0 %#x, %d checks", lat, res[0], m.OCU.Stats.Checks)
	}
}

func TestLMICheckAccess(t *testing.T) {
	m := NewLMI()
	p, _ := m.Codec.Encode(0x40000, 1)
	eff, extra, fault := checkLane(m, access{Ptr: uint64(p), Size: 4, Space: isa.SpaceGlobal})
	if fault != nil || eff != 0x40000 || extra != 0 {
		t.Errorf("valid access: eff=%#x extra=%d fault=%v", eff, extra, fault)
	}
	_, _, fault = checkLane(m, access{Ptr: uint64(p.Invalidate()), Size: 4})
	if fault == nil {
		t.Error("zero-extent access allowed")
	}
}

func TestLMIWithTrackingScope(t *testing.T) {
	m := NewLMIWithTracking(true)
	if m.Tracker == nil || m.EC.Tracker != m.Tracker {
		t.Fatal("tracker not wired")
	}
	// Global allocations are tracked...
	b := alloc.Block{Addr: alloc.GlobalBase, Reserved: 1024, Extent: 3}
	val, err := m.TagAlloc(b, isa.SpaceGlobal)
	if err != nil {
		t.Fatalf("TagAlloc: %v", err)
	}
	if _, _, fault := checkLane(m, access{Ptr: val, Size: 4}); fault != nil {
		t.Errorf("live tracked buffer faulted: %v", fault)
	}
	m.UntagFree(val, isa.SpaceGlobal)
	if _, _, fault := checkLane(m, access{Ptr: val, Size: 4}); fault == nil {
		t.Error("freed tracked buffer allowed")
	}
	// ...but stack-range pointers (not allocator-managed) are out of
	// scope and never tabled.
	sp, _ := m.Codec.Encode(alloc.StackTop-256, 1)
	if _, _, fault := checkLane(m, access{Ptr: uint64(sp), Size: 4}); fault != nil {
		t.Errorf("out-of-scope stack pointer faulted: %v", fault)
	}
}

func TestGPUShieldTaggingAndBounds(t *testing.T) {
	g := NewGPUShield()
	if g.Name() != "gpushield" || g.AllocPolicy() != alloc.PolicyBase {
		t.Error("identity")
	}
	b := alloc.Block{Addr: alloc.GlobalBase, Requested: 1000, Reserved: 1024}
	val, err := g.TagAlloc(b, isa.SpaceGlobal)
	if err != nil {
		t.Fatalf("TagAlloc: %v", err)
	}
	if g.Canonical(val) != b.Addr {
		t.Error("Canonical must strip the ID")
	}
	// In-bounds access passes.
	if _, _, fault := checkLane(g, access{Ptr: val + 1020, Size: 4, Space: isa.SpaceGlobal}); fault != nil {
		t.Errorf("in-bounds faulted: %v", fault)
	}
	// Out-of-bounds faults.
	if _, _, fault := checkLane(g, access{Ptr: val + 1024, Size: 4, Space: isa.SpaceGlobal}); fault == nil {
		t.Error("per-buffer overflow missed")
	}
	// Freeing keeps the entry: stale access passes (no temporal safety).
	g.UntagFree(val, isa.SpaceGlobal)
	if _, _, fault := checkLane(g, access{Ptr: val, Size: 4, Space: isa.SpaceGlobal}); fault != nil {
		t.Errorf("GPUShield should not provide temporal safety: %v", fault)
	}
}

func TestGPUShieldRegions(t *testing.T) {
	g := NewGPUShield()
	// Heap buffers are untagged; in-region accesses pass, escapes fault.
	hb := alloc.Block{Addr: alloc.HeapBase + 4096, Reserved: 256}
	val, _ := g.TagAlloc(hb, isa.SpaceHeap)
	if val != hb.Addr {
		t.Error("heap blocks must stay untagged")
	}
	if _, _, fault := checkLane(g, access{Ptr: val + 100000, Size: 4, Space: isa.SpaceGlobal}); fault != nil {
		t.Errorf("intra-heap-region overflow should pass: %v", fault)
	}
	if _, _, fault := checkLane(g, access{Ptr: 0x123, Size: 4, Space: isa.SpaceGlobal}); fault == nil {
		t.Error("escape from heap/global regions missed")
	}
	// Local region.
	if _, _, fault := checkLane(g, access{Ptr: alloc.StackTop - 8, Size: 4, Space: isa.SpaceLocal}); fault != nil {
		t.Errorf("in-region local faulted: %v", fault)
	}
	if _, _, fault := checkLane(g, access{Ptr: alloc.StackTop + 8, Size: 4, Space: isa.SpaceLocal}); fault == nil {
		t.Error("beyond-local missed")
	}
	// Shared unprotected.
	if _, _, fault := checkLane(g, access{Ptr: 1 << 40, Size: 4, Space: isa.SpaceShared}); fault != nil {
		t.Error("GPUShield must not check shared memory")
	}
}

func TestGPUShieldRCacheCosts(t *testing.T) {
	g := NewGPUShield()
	val, _ := g.TagAlloc(alloc.Block{Addr: alloc.GlobalBase, Reserved: 1 << 20}, isa.SpaceGlobal)
	// First (uncoalesced) lookup: compulsory miss -> lookup + penalty.
	_, extra, _ := checkLane(g, access{Ptr: val, Size: 4, Space: isa.SpaceGlobal, SM: 0})
	if extra != g.TxLookupCost+g.MissPenalty {
		t.Errorf("first lookup extra = %d", extra)
	}
	// Second: hit -> lookup cost only.
	_, extra, _ = checkLane(g, access{Ptr: val + 4096, Size: 4, Space: isa.SpaceGlobal, SM: 0})
	if extra != g.TxLookupCost {
		t.Errorf("warm lookup extra = %d", extra)
	}
	// Coalesced lane: free.
	_, extra, _ = checkLane(g, access{Ptr: val + 4100, Size: 4, Space: isa.SpaceGlobal, SM: 0, Coalesced: true})
	if extra != 0 {
		t.Errorf("coalesced lane extra = %d", extra)
	}
	if g.Stats.Lookups != 2 || g.Stats.Misses != 1 {
		t.Errorf("stats: %+v", g.Stats)
	}
	// Reset clears the RCache: next lookup misses again.
	g.Reset()
	_, extra, _ = checkLane(g, access{Ptr: val, Size: 4, Space: isa.SpaceGlobal, SM: 0})
	if extra != g.TxLookupCost+g.MissPenalty {
		t.Errorf("post-reset extra = %d", extra)
	}
}

func TestBaggyMechanism(t *testing.T) {
	m := NewBaggy()
	if m.Name() != "baggybounds" || m.AllocPolicy() != alloc.PolicyPow2 {
		t.Error("identity")
	}
	b := alloc.Block{Addr: alloc.GlobalBase, Reserved: 512, Extent: 2}
	val, err := m.TagAlloc(b, isa.SpaceGlobal)
	if err != nil {
		t.Fatalf("TagAlloc: %v", err)
	}
	if core.Pointer(val).Extent() != 2 {
		t.Error("baggy must tag like LMI")
	}
	// No hardware checks: out-of-class access passes the LSU (the
	// software TRAP sequence is responsible for detection).
	eff, extra, fault := checkLane(m, access{Ptr: val + 100000, Size: 4})
	if fault != nil || extra != 0 || eff != b.Addr+100000 {
		t.Errorf("baggy LSU must only strip: eff=%#x extra=%d fault=%v", eff, extra, fault)
	}
	if res, lat := checkPointerRow(m, val, 1, map[int]uint64{0: val + 100000}); lat != 0 || res[0] != val+100000 {
		t.Error("baggy has no OCU")
	}
	if m.UntagFree(val, isa.SpaceHeap) != b.Addr || m.Canonical(val) != b.Addr {
		t.Error("untag")
	}
	m.Reset()

	if _, err := m.TagAlloc(alloc.Block{Addr: 3, Reserved: 256, Extent: 1}, isa.SpaceGlobal); err == nil {
		t.Error("misaligned block must error")
	}
}

func TestIMTMechanism(t *testing.T) {
	var _ sim.Mechanism = (*IMT)(nil)
	m := NewIMT()
	if m.Name() != "imt" || m.AllocPolicy() != alloc.PolicyBase {
		t.Error("identity")
	}
	b := alloc.Block{Addr: alloc.GlobalBase, Requested: 1000, Reserved: 1024}
	val, err := m.TagAlloc(b, isa.SpaceGlobal)
	if err != nil {
		t.Fatalf("TagAlloc: %v", err)
	}
	if m.Canonical(val) != b.Addr {
		t.Error("Canonical")
	}
	tag := (val >> imtTagShift) & 0xF
	if tag == 0 {
		t.Fatal("zero tag assigned")
	}
	// In-bounds: tags match.
	if _, _, fault := checkLane(m, access{Ptr: val + 512, Size: 4, Space: isa.SpaceGlobal}); fault != nil {
		t.Errorf("in-bounds faulted: %v", fault)
	}
	// Adjacent buffer has a different tag: overflow caught.
	b2 := alloc.Block{Addr: alloc.GlobalBase + 1024, Reserved: 1024}
	if _, err := m.TagAlloc(b2, isa.SpaceGlobal); err != nil {
		t.Fatalf("TagAlloc: %v", err)
	}
	if _, _, fault := checkLane(m, access{Ptr: val + 1024, Size: 4, Space: isa.SpaceGlobal}); fault == nil {
		t.Error("adjacent overflow missed (tag collision?)")
	}
	// Temporal: tag washing catches the stale base pointer.
	m.UntagFree(val, isa.SpaceGlobal)
	if _, _, fault := checkLane(m, access{Ptr: val, Size: 4, Space: isa.SpaceGlobal}); fault == nil {
		t.Error("stale pointer passed after tag wash")
	}
	// Non-global spaces unprotected; untagged pointers unchecked.
	if _, _, fault := checkLane(m, access{Ptr: 1 << 40, Size: 4, Space: isa.SpaceShared}); fault != nil {
		t.Error("IMT must not check shared")
	}
	if _, _, fault := checkLane(m, access{Ptr: alloc.HeapBase, Size: 4, Space: isa.SpaceGlobal}); fault != nil {
		t.Error("untagged heap pointer must pass")
	}
	if m.Stats.Checks == 0 || m.Stats.Mismatches == 0 {
		t.Errorf("stats: %+v", m.Stats)
	}
	m.Reset()
	heapVal, _ := m.TagAlloc(alloc.Block{Addr: 5}, isa.SpaceHeap)
	if m.UntagFree(123, isa.SpaceHeap) != 123 || heapVal != 5 {
		t.Error("non-global allocs must stay untagged")
	}
	if res, lat := checkPointerRow(m, 1, 1, map[int]uint64{0: 2}); res[0] != 2 || lat != 0 {
		t.Error("IMT must not check arithmetic")
	}
}
