package sim

import (
	"math/bits"

	"lmi/internal/alloc"
	"lmi/internal/isa"
)

// localPhysBase is the physical base of the per-thread local-memory
// backing region used for cache/DRAM timing. Local memory "resides in
// DRAM alongside global memory but is separated at the thread level"
// (§II-A); the hardware interleaves it word-by-word across the lanes of a
// warp so that warp-uniform local accesses coalesce.
const localPhysBase uint64 = 0x1000_0000_0000

// localPhys translates a lane's local virtual address to the interleaved
// physical address used for timing.
func localPhys(warpGlobalID, lane int, va uint64) uint64 {
	return localPhysBase +
		uint64(warpGlobalID)*(alloc.StackTop*32) +
		(va>>2)*128 + uint64(lane)*4
}

// memAccess executes one warp-level memory instruction: the safety
// check of every exec lane through the mechanism's per-warp hook (the
// EC site, Exec.CheckAccess), then the functional access of the lanes
// that passed (the MemKernel resolved at launch), then their coalescing
// and latency.
func (ls *launch) memAccess(sm *smCtx, w *warp, in *isa.Instr, exec uint32, pc int) {
	ls.progress()
	cfg := &ls.Dev.Cfg
	space := in.Op.MemSpace()
	size := in.AccSize()
	shift := ls.LineShift

	acc := &ls.Acc
	acc.SM, acc.Space, acc.Size, acc.Store, acc.Cycle = sm.id, space, size, in.Op.IsStore(), ls.cycle
	pass, extra := ls.CheckAccess(exec, ls.row(w, in.Src[0]), isa.Sx32(in.Imm), in.Hint.E, pc, w.globalID)
	var shadow *BlockShadow
	if space == isa.SpaceShared {
		shadow = w.block.race // nil with the oracle off
	}
	ls.Observe(pass, shadow, in.Op, pc, w.warpIdx)

	// A load or atomic with an RZ destination writes the scratch row.
	as, dr := w.block.shared, &ls.res
	if space == isa.SpaceGlobal {
		as = ls.Dev.Global
	}
	if in.Dst != isa.RZ {
		dr = ls.row(w, in.Dst)
	}
	ls.mem[pc](as, w.locals, pass, &acc.Addr, ls.row(w, in.Src[1]), dr)
	if ls.Halted {
		return
	}
	co := &ls.Lines
	co.Reset()
	for m := pass; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		phys := acc.Addr[lane]
		if space == isa.SpaceLocal {
			phys = localPhys(w.globalID, lane, phys)
		}
		co.Add(phys, size, shift)
	}

	// Timing: serialize one transaction per cycle at the LSU; each
	// transaction traverses the hierarchy.
	lineAddrs := co.Lines()
	var latency uint64
	switch space {
	case isa.SpaceShared:
		latency = cfg.SharedLatency
		if n := uint64(len(lineAddrs)); n > 1 {
			latency += n - 1
		}
	default: // global and local traverse L1/L2/DRAM
		for i, la := range lineAddrs {
			var lat uint64
			addr := la << shift
			if sm.l1.Access(addr) {
				lat = cfg.L1Latency
			} else if ls.l2.Access(addr) {
				lat = cfg.L1Latency + cfg.L2Latency
			} else {
				lat = cfg.L1Latency + cfg.L2Latency + ls.dram.Access(ls.cycle, cfg.LineSize)
			}
			if total := uint64(i) + lat; total > latency {
				latency = total
			}
		}
		if latency == 0 {
			latency = cfg.L1Latency // fully-suppressed or zero-lane access
		}
	}
	latency += extra

	if in.Op.IsLoad() && in.Dst != isa.RZ {
		w.regReady[in.Dst] = max(w.regReady[in.Dst], ls.cycle+latency)
	}
}

// heapOp executes device malloc/free for each exec lane (Exec.Heap)
// and charges the allocator latency.
func (ls *launch) heapOp(sm *smCtx, w *warp, in *isa.Instr, exec uint32, pc int) {
	ls.progress()
	var dst *[32]uint64
	if in.Op == isa.MALLOC && in.Dst != isa.RZ {
		dst = ls.row(w, in.Dst)
	}
	ls.Heap(in.Op, exec, ls.row(w, in.Src[0]), dst, FaultRecord{PC: pc, SM: sm.id, Warp: w.globalID, Cycle: ls.cycle})
	if ls.Halted {
		return
	}
	cfg := &ls.Dev.Cfg
	lat := cfg.MallocBaseLatency + cfg.MallocLaneLatency*uint64(bits.OnesCount32(exec))
	if dst != nil {
		w.regReady[in.Dst] = max(w.regReady[in.Dst], ls.cycle+lat)
	}
	// Free also occupies the LSU for the same duration.
	if in.Op == isa.FREE {
		w.nextIssue = ls.cycle + lat/4
	}
}
