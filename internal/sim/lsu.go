package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/mem"
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

// coalescer collects the distinct cache lines one warp memory
// instruction touches, in first-touch order. Each lane touches at most
// two lines, so 64 entries always suffice.
type coalescer struct {
	lines    [64]uint64
	n        int
	prev     uint64
	havePrev bool
}

// add records line la unless this access already touches it (lanes may
// stride across a few lines, so the whole list is checked).
func (c *coalescer) add(la uint64) {
	for _, e := range c.lines[:c.n] {
		if e == la {
			return
		}
	}
	c.lines[c.n] = la
	c.n++
}

// addAccess records the line(s) a size-byte access at phys touches.
func (c *coalescer) addAccess(phys, size, lineSize uint64) {
	la := phys / lineSize
	if !(c.havePrev && la == c.prev) {
		c.add(la)
	}
	c.prev, c.havePrev = la, true
	// An access straddling a line boundary touches the next line too.
	if (phys%lineSize)+size > lineSize {
		c.add(la + 1)
	}
}

// memAccess executes one warp-level memory instruction: per-lane safety
// checks (the EC site), functional access, coalescing, and latency.
func (ls *launch) memAccess(sm *smCtx, w *warp, in *isa.Instr, exec uint32, pc int) {
	ls.progress()
	cfg := &ls.dev.Cfg
	space := in.Op.MemSpace()
	size := in.AccSize()
	isStore := in.Op.IsStore()

	var (
		co          coalescer
		prevRawLine uint64
		haveRaw     bool
		extraSum    uint64
	)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		raw := w.src(lane, in.Src[0]) + sx32(in.Imm)

		// Coalescing is judged on raw (possibly tagged) pointer lines:
		// tag bits are constant within a buffer, so lanes falling in the
		// same line compare equal regardless of the tagging scheme.
		rawLine := raw / cfg.LineSize
		coalesced := haveRaw && rawLine == prevRawLine
		prevRawLine, haveRaw = rawLine, true
		var eff uint64
		if in.Hint.E {
			// The compiler proved this access in-bounds and the linter's
			// elide audit independently re-derived the proof: the extent
			// check is skipped and the address is canonicalised directly.
			eff = ls.dev.Mech.Canonical(raw)
			ls.stats.ECElided++
		} else {
			var extra uint64
			var fault *core.Fault
			eff, extra, fault = ls.dev.Mech.CheckAccess(Access{
				SM: sm.id, Space: space, Ptr: raw, Size: size,
				Store: isStore, Cycle: ls.cycle, Coalesced: coalesced,
			})
			ls.stats.ECChecked++
			// Mechanism costs accumulate across lanes: shared checking
			// structures (bounds caches, table fetch ports) serialize, which
			// is exactly what hurts uncoalesced access patterns (§XI-A).
			// Mechanisms with per-lane hardware (LMI's EC) return zero.
			extraSum += extra
			if fault != nil {
				ls.recordFault(fault, pc, sm.id, w.globalID, lane)
				if ls.halted {
					return
				}
				continue // access suppressed for this lane
			}
		}
		if ls.dev.Tracer != nil {
			ls.traceEv.Addrs = append(ls.traceEv.Addrs, eff)
		}

		// Functional access.
		var as *mem.AddrSpace
		phys := eff
		switch space {
		case isa.SpaceGlobal:
			as = ls.dev.Global
		case isa.SpaceShared:
			as = w.block.shared
			if w.block.race != nil {
				kind := RaceRead
				if in.Op == isa.ATOMS {
					kind = RaceAtomic
				} else if isStore {
					kind = RaceWrite
				}
				w.block.race.Record(pc, w.warpIdx*32+lane, kind, eff, uint64(size))
			}
		case isa.SpaceLocal:
			as = w.locals[lane]
			if as == nil {
				as = mem.NewAddrSpace()
				w.locals[lane] = as
			}
			phys = localPhys(w.globalID, lane, eff)
		}
		switch {
		case in.Op == isa.ATOMG || in.Op == isa.ATOMS:
			old := as.Read(eff, int(size))
			add := w.src(lane, in.Src[1])
			as.Write(eff, uint64(uint32(int32(old)+int32(add))), int(size))
			if in.Dst != isa.RZ {
				w.rf[lane*w.nregs+int(in.Dst)] = old
			}
		case isStore:
			as.Write(eff, w.src(lane, in.Src[1]), int(size))
		default:
			w.loadInto(lane, in, as.Read(eff, int(size)))
		}
		co.addAccess(phys, size, cfg.LineSize)
	}

	// Timing: serialize one transaction per cycle at the LSU; each
	// transaction traverses the hierarchy.
	lineAddrs := co.lines[:co.n]
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
			addr := la * cfg.LineSize
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
	latency += extraSum

	if in.Op.IsLoad() && in.Dst != isa.RZ {
		w.regReady[in.Dst] = max(w.regReady[in.Dst], ls.cycle+latency)
	}
}

// loadInto writes a loaded value into a lane register, applying the
// sign-extension flag.
func (w *warp) loadInto(lane int, in *isa.Instr, v uint64) {
	if in.Dst == isa.RZ {
		return
	}
	if in.SignExtend() && in.AccSize() == 4 {
		v = sx32(int32(uint32(v)))
	}
	w.rf[lane*w.nregs+int(in.Dst)] = v
}

// heapOp executes device malloc/free for each active lane (§V-B "Heap
// Memory"): every thread allocates its own buffer, contending on the
// device allocator.
func (ls *launch) heapOp(sm *smCtx, w *warp, in *isa.Instr, exec uint32, pc int) {
	ls.progress()
	cfg := &ls.dev.Cfg
	lanes := uint64(0)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		lanes++
		val := w.src(lane, in.Src[0])
		if in.Op == isa.MALLOC {
			size := val
			if int64(size) < 0 {
				ls.runErr = fmt.Errorf("sim: %s: negative malloc size at pc %d", ls.prog.Name, pc)
				ls.halted = true
				return
			}
			b, err := ls.dev.heap.Malloc(size)
			if err != nil {
				ls.runErr = fmt.Errorf("sim: %s: %w", ls.prog.Name, err)
				ls.halted = true
				return
			}
			if in.Dst != isa.RZ {
				tagged, err := ls.dev.Mech.TagAlloc(b, isa.SpaceHeap)
				if err != nil {
					ls.runErr = fmt.Errorf("sim: %s: %w", ls.prog.Name, err)
					ls.halted = true
					return
				}
				w.rf[lane*w.nregs+int(in.Dst)] = tagged
			}
		} else { // FREE
			addr := ls.dev.Mech.UntagFree(val, isa.SpaceHeap)
			if err := ls.dev.heap.Free(addr); err != nil {
				var f *core.Fault
				if errors.As(err, &f) {
					ls.recordFault(f, pc, sm.id, w.globalID, lane)
					if ls.halted {
						return
					}
				} else {
					ls.runErr = err
					ls.halted = true
					return
				}
			}
		}
	}
	lat := cfg.MallocBaseLatency + cfg.MallocLaneLatency*lanes
	if in.Op == isa.MALLOC && in.Dst != isa.RZ {
		w.regReady[in.Dst] = max(w.regReady[in.Dst], ls.cycle+lat)
	}
	// Free also occupies the LSU for the same duration.
	if in.Op == isa.FREE {
		w.nextIssue = ls.cycle + lat/4
	}
}
