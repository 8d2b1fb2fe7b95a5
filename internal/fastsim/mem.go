package fastsim

import (
	"errors"
	"fmt"
	"math/bits"

	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/mem"
	"lmi/internal/sim"
)

// countEC folds a warp memory instruction's per-lane extent-check
// count into the launch statistics: every lane of an E-hinted site is
// an elision, every lane of a checked site runs the extent check
// (including faulting lanes — the check ran and failed).
func (e *engine) countEC(hintE bool, n uint64) {
	if hintE {
		e.stats.ECElided += n
	} else {
		e.stats.ECChecked += n
	}
}

// addLineSet records line la in the per-instruction transaction set if
// it is not already present (the set is tiny — warp accesses coalesce
// to a handful of lines — so linear scan beats anything fancier).
func addLineSet(lines []uint64, la uint64) []uint64 {
	for _, x := range lines {
		if x == la {
			return lines
		}
	}
	return append(lines, la)
}

// memClosure compiles one warp-level memory instruction. All decode
// decisions — memory space, access size, store/load/atomic role, the
// operand registers, the sign-extension flag, and crucially the E-hint
// extent-check elision — are resolved here, once; the returned closure
// replays the cycle simulator's per-lane EC-site semantics (raw-pointer
// coalescing judgement, Canonical on the elided path vs CheckAccess on
// the checked path, ECElided/ECChecked accounting, per-lane fault
// suppression) without any per-execution decoding.
func (cc *compiler) memClosure(in *isa.Instr, pc int, g guard) opFn {
	op := in.Op
	space := op.MemSpace()
	size := in.AccSize()
	isStore := op.IsStore()
	isAtom := op == isa.ATOMG || op == isa.ATOMS
	addr, data, dst := cc.reg(in.Src[0]), cc.reg(in.Src[1]), cc.dst(in)
	off := sx32(in.Imm)
	signExt := in.SignExtend() && size == 4
	hintE := in.Hint.E
	// Race-oracle access class, resolved at compile time; whether the
	// oracle is armed is a per-launch runtime decision (closures are
	// cached across launches).
	shadowed := space == isa.SpaceShared
	raceKind := sim.RaceRead
	if op == isa.ATOMS {
		raceKind = sim.RaceAtomic
	} else if isStore {
		raceKind = sim.RaceWrite
	}

	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g.exec(w, active)
		e.count(exec)
		if exec != 0 {
			e.memInstrs[op]++
		}
		w.sinceProg = 0
		// LineSize is validated as a power of two at device creation, so
		// the per-lane line arithmetic reduces to shifts and masks.
		lineSize := e.cfg.LineSize
		lineShift := uint(bits.TrailingZeros64(lineSize))
		lineMask := lineSize - 1
		lines := w.lineBuf[:0]
		var (
			prevLine    uint64
			havePrev    bool
			prevRawLine uint64
			haveRaw     bool
			extraSum    uint64
			ecCount     uint64
			pw          mem.PageWin
		)
		switch space {
		case isa.SpaceGlobal:
			pw = mem.NewPageWin(e.global)
		case isa.SpaceShared:
			pw = mem.NewPageWin(w.shared)
		}
		trace := e.tracer != nil
		// Everything about the access except the pointer and the
		// coalescing judgement is invariant across the lanes.
		acc := sim.Access{
			SM: e.smID, Space: space, Size: size,
			Store: isStore, Cycle: e.blockBase + w.vtime,
		}

		ar, vr, dr := w.row(addr), w.row(data), w.row(dst)
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			raw := ar[lane] + off
			// Coalescing is judged on raw (possibly tagged) pointer lines,
			// exactly as in the cycle simulator's LSU.
			rawLine := raw >> lineShift
			coalesced := haveRaw && rawLine == prevRawLine
			prevRawLine, haveRaw = rawLine, true
			var eff uint64
			if hintE {
				// Compile-time-hoisted elision: the E hint proved this
				// access in-bounds, so the address is canonicalised
				// directly and no extent check runs.
				eff = e.mech.Canonical(raw)
				ecCount++
			} else {
				var extra uint64
				var fault *core.Fault
				acc.Ptr, acc.Coalesced = raw, coalesced
				eff, extra, fault = e.mech.CheckAccess(acc)
				ecCount++
				extraSum += extra
				if fault != nil {
					e.recordFault(fault, pc, w, lane)
					if e.halted {
						e.countEC(hintE, ecCount)
						w.lineBuf = lines
						return exec
					}
					continue // access suppressed for this lane
				}
			}
			if trace {
				e.traceEv.Addrs = append(e.traceEv.Addrs, eff)
			}
			if shadowed && e.shadow != nil {
				e.shadow.Record(pc, w.warpIdx*32+lane, raceKind, eff, size)
			}

			// Functional access (mirrors the cycle simulator's LSU).
			switch space {
			case isa.SpaceGlobal, isa.SpaceShared:
				if isAtom {
					old := pw.Load(eff, size)
					pw.Store(eff, uint64(uint32(int32(old)+int32(vr[lane]))), size)
					dr[lane] = old
				} else if isStore {
					pw.Store(eff, vr[lane], size)
				} else {
					v := pw.Load(eff, size)
					if signExt {
						v = sx32(int32(uint32(v)))
					}
					dr[lane] = v
				}
			case isa.SpaceLocal:
				lm := w.locals[lane]
				if lm == nil {
					lm = mem.NewAddrSpace()
					w.locals[lane] = lm
				}
				if isStore {
					lm.Write(eff, vr[lane], int(size))
				} else {
					v := lm.Read(eff, int(size))
					if signExt {
						v = sx32(int32(uint32(v)))
					}
					dr[lane] = v
				}
			}

			// Transaction-line accounting (timing estimate).
			la := eff >> lineShift
			if !havePrev || la != prevLine {
				lines = addLineSet(lines, la)
			}
			prevLine, havePrev = la, true
			if (eff&lineMask)+size > lineSize {
				lines = addLineSet(lines, la+1)
			}
		}

		e.countEC(hintE, ecCount)
		// Deterministic per-warp latency estimate (not part of the
		// functional projection): one base latency plus transaction
		// serialisation plus mechanism extras.
		var lat uint64
		if space == isa.SpaceShared {
			lat = e.cfg.SharedLatency
		} else {
			lat = e.cfg.L1Latency
		}
		if n := uint64(len(lines)); n > 1 {
			lat += n - 1
		}
		w.vtime += lat + extraSum
		w.lineBuf = lines
		return exec
	}
}

// heapClosure compiles a device MALLOC/FREE intrinsic, mirroring the
// cycle simulator's per-lane heap semantics: allocator errors abort the
// launch, free-of-invalid faults are recorded per lane, and tagging is
// skipped when MALLOC's destination is RZ.
func (cc *compiler) heapClosure(in *isa.Instr, pc int, g guard) opFn {
	op := in.Op
	isMalloc := op == isa.MALLOC
	src, tag, dst := cc.reg(in.Src[0]), in.Dst != isa.RZ, cc.dst(in)

	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g.exec(w, active)
		e.count(exec)
		if exec != 0 {
			e.memInstrs[op]++
		}
		w.sinceProg = 0
		lanes := uint64(0)
		sr, dr := w.row(src), w.row(dst)
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			lanes++
			val := sr[lane]
			if isMalloc {
				size := val
				if int64(size) < 0 {
					e.fail(fmt.Errorf("fastsim: %s: negative malloc size at pc %d", e.c.prog.Name, pc))
					return exec
				}
				b, err := e.heap.Malloc(size)
				if err != nil {
					e.fail(fmt.Errorf("fastsim: %s: %w", e.c.prog.Name, err))
					return exec
				}
				if tag {
					tagged, err := e.mech.TagAlloc(b, isa.SpaceHeap)
					if err != nil {
						e.fail(fmt.Errorf("fastsim: %s: %w", e.c.prog.Name, err))
						return exec
					}
					dr[lane] = tagged
				}
			} else { // FREE
				addr := e.mech.UntagFree(val, isa.SpaceHeap)
				if err := e.heap.Free(addr); err != nil {
					var f *core.Fault
					if errors.As(err, &f) {
						e.recordFault(f, pc, w, lane)
						if e.halted {
							return exec
						}
					} else {
						e.fail(err)
						return exec
					}
				}
			}
		}
		w.vtime += e.cfg.MallocBaseLatency + e.cfg.MallocLaneLatency*lanes
		return exec
	}
}
