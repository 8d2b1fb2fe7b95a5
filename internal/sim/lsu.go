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

// addAccess records the line(s) a size-byte access at phys touches,
// with lines of 1<<shift bytes.
func (c *coalescer) addAccess(phys, size uint64, shift uint) {
	la := phys >> shift
	if !(c.havePrev && la == c.prev) {
		c.add(la)
	}
	c.prev, c.havePrev = la, true
	// An access straddling a line boundary touches the next line too.
	if phys&(1<<shift-1)+size > 1<<shift {
		c.add(la + 1)
	}
}

// memAccess executes one warp-level memory instruction: the safety
// check of every exec lane through the mechanism's per-warp hook (the
// EC site), then the functional access and coalescing of the lanes
// that passed, then latency. Global and shared accesses go through one
// page window (mem.PageWin) for the whole instruction.
func (ls *launch) memAccess(sm *smCtx, w *warp, in *isa.Instr, exec uint32, pc int) {
	ls.progress()
	cfg := &ls.dev.Cfg
	space := in.Op.MemSpace()
	size := in.AccSize()
	isStore := in.Op.IsStore()
	isAtom := in.Op == isa.ATOMG || in.Op == isa.ATOMS
	signExt := in.SignExtend() && size == 4
	shift := ls.lineShift
	off := isa.Sx32(in.Imm)

	// Safety checks. Coalescing is judged on raw (possibly tagged)
	// pointer lines over every exec lane: tag bits are constant within
	// a buffer, so lanes falling in the same line compare equal
	// regardless of the tagging scheme.
	acc := &ls.acc
	ar := ls.row(w, in.Src[0])
	pass, extraSum := exec, uint64(0)
	if in.Hint.E {
		// The compiler proved this access in-bounds and the linter's
		// elide audit independently re-derived the proof: the extent
		// check is skipped and the address is canonicalised directly.
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			acc.Addr[lane] = ls.dev.Mech.Canonical(ar[lane] + off)
		}
		ls.stats.ECElided += uint64(bits.OnesCount32(exec))
	} else {
		var (
			co          uint32
			prevRawLine uint64
			haveRaw     bool
		)
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			raw := ar[lane] + off
			acc.Addr[lane] = raw
			rawLine := raw >> shift
			if haveRaw && rawLine == prevRawLine {
				co |= 1 << lane
			}
			prevRawLine, haveRaw = rawLine, true
		}
		acc.SM, acc.Space, acc.Size, acc.Store = sm.id, space, size, isStore
		acc.Cycle, acc.Coalesced = ls.cycle, co
		checked := exec
		// Mechanism costs accumulate across lanes: shared checking
		// structures (bounds caches, table fetch ports) serialize, which
		// is exactly what hurts uncoalesced access patterns (§XI-A).
		// Mechanisms with per-lane hardware (LMI's EC) charge zero.
		for m := exec; m != 0; {
			extra, lane, fault := ls.dev.Mech.CheckAccess(acc, m)
			extraSum += extra
			if fault == nil {
				break
			}
			ls.recordFault(fault, pc, sm.id, w.globalID, lane)
			pass &^= 1 << lane // access suppressed for this lane
			if ls.halted {
				// The lanes above the halting one are never checked.
				below := uint32(1)<<lane - 1
				pass &= below
				checked &= below | 1<<lane
				break
			}
			m &= ^uint32(0) << (lane + 1)
		}
		ls.stats.ECChecked += uint64(bits.OnesCount32(checked))
	}

	if ls.dev.Tracer != nil {
		for m := pass; m != 0; m &= m - 1 {
			ls.traceEv.Addrs = append(ls.traceEv.Addrs, acc.Addr[bits.TrailingZeros32(m)])
		}
	}
	var pw mem.PageWin
	switch space {
	case isa.SpaceGlobal:
		pw = mem.NewPageWin(ls.dev.Global)
	case isa.SpaceShared:
		pw = mem.NewPageWin(w.block.shared)
		// The block's race-oracle shadow (nil with the oracle off).
		if race := w.block.race; race != nil {
			kind := RaceRead
			if isAtom {
				kind = RaceAtomic
			} else if isStore {
				kind = RaceWrite
			}
			for m := pass; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				race.Record(pc, w.warpIdx*32+lane, kind, acc.Addr[lane], size)
			}
		}
	}

	// Functional access; a load or atomic with an RZ destination writes
	// the scratch row.
	var co coalescer
	vr, dr := ls.row(w, in.Src[1]), &ls.res
	if in.Dst != isa.RZ {
		dr = ls.row(w, in.Dst)
	}
	for m := pass; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		eff := acc.Addr[lane]
		phys := eff
		switch {
		case space == isa.SpaceLocal:
			lm := w.locals[lane]
			if lm == nil {
				lm = mem.NewAddrSpace()
				w.locals[lane] = lm
			}
			if isStore {
				lm.Write(eff, vr[lane], int(size))
			} else {
				dr[lane] = loadValue(lm.Read(eff, int(size)), signExt)
			}
			phys = localPhys(w.globalID, lane, eff)
		case isAtom:
			old := pw.Load(eff, size)
			pw.Store(eff, uint64(uint32(int32(old)+int32(vr[lane]))), size)
			dr[lane] = old
		case isStore:
			pw.Store(eff, vr[lane], size)
		default:
			dr[lane] = loadValue(pw.Load(eff, size), signExt)
		}
		co.addAccess(phys, size, shift)
	}
	if ls.halted {
		return
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
	latency += extraSum

	if in.Op.IsLoad() && in.Dst != isa.RZ {
		w.regReady[in.Dst] = max(w.regReady[in.Dst], ls.cycle+latency)
	}
}

// loadValue applies a load's sign-extension flag (32-bit loads only) to
// the loaded value.
func loadValue(v uint64, signExt bool) uint64 {
	if signExt {
		return isa.Sx32(int32(uint32(v)))
	}
	return v
}

// heapOp executes device malloc/free for each active lane (§V-B "Heap
// Memory"): every thread allocates its own buffer, contending on the
// device allocator.
func (ls *launch) heapOp(sm *smCtx, w *warp, in *isa.Instr, exec uint32, pc int) {
	ls.progress()
	cfg := &ls.dev.Cfg
	lanes := uint64(0)
	src := ls.row(w, in.Src[0])
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		lanes++
		val := src[lane]
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
				ls.row(w, in.Dst)[lane] = tagged
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
