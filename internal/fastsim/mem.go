package fastsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/mem"
	"lmi/internal/sim"
)

// memClosure compiles one warp-level memory instruction. All decode
// decisions — memory space, access size, store/load/atomic role, the
// operand registers, the sign-extension flag, and crucially the E-hint
// extent-check elision — are resolved here, once. The returned closure
// runs the instruction in four phases over the exec lanes:
//
//  1. check (engine.check): the raw addresses, the coalescing mask and
//     the mechanism's per-warp hook, or Canonical on an E-hinted site,
//     with the cycle simulator's ECChecked/ECElided accounting and
//     per-lane fault order and suppression;
//  2. observation: trace addresses and race-oracle shadowing, each only
//     when armed;
//  3. the functional access: a loop picked here per space and role, or
//     the unit-stride path for a 4-byte global or shared access whose
//     lanes all passed (see unitSpan);
//  4. the transaction-line count of the timing estimate.
func (cc *compiler) memClosure(in *isa.Instr, pc int, g guard) opFn {
	op := in.Op
	space := op.MemSpace()
	size := in.AccSize()
	isStore := op.IsStore()
	addr, data, dst := cc.reg(in.Src[0]), cc.reg(in.Src[1]), cc.dst(in)
	off := isa.Sx32(in.Imm)
	hintE := in.Hint.E
	signExt := in.SignExtend() && size == 4
	access := accessLoop(op, size, signExt)
	var unit unitFn
	if size == 4 && space != isa.SpaceLocal {
		unit = unitLoop(op, signExt)
	}
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
		w.sinceProg = 0
		// Deterministic per-warp latency estimate (not part of the
		// functional projection): one base latency plus transaction
		// serialisation plus mechanism extras.
		lat := e.cfg.L1Latency
		if space == isa.SpaceShared {
			lat = e.cfg.SharedLatency
		}
		if exec == 0 {
			w.vtime += lat
			return exec
		}
		e.memInstrs[op]++

		a := &e.acc
		a.SM, a.Space, a.Size, a.Store, a.Cycle = e.smID, space, size, isStore, e.blockBase+w.vtime
		pass, extra := e.check(w, exec, w.row(addr), off, hintE, pc)

		if e.tracer != nil {
			for m := pass; m != 0; m &= m - 1 {
				e.traceEv.Addrs = append(e.traceEv.Addrs, a.Addr[bits.TrailingZeros32(m)])
			}
		}
		if shadowed && e.shadow != nil {
			for m := pass; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				e.shadow.Record(pc, w.warpIdx*32+lane, raceKind, a.Addr[lane], size)
			}
		}

		vr, dr := w.row(data), w.row(dst)
		if e.halted {
			access(e, w, pass, &a.Addr, vr, dr)
			return exec
		}
		var (
			n    uint64
			done bool
		)
		if unit != nil && pass == exec {
			var lo uint64
			if lo, n, done = unitSpan(&a.Addr, exec, e.lineShift); done {
				unit(e, exec, lo, vr, dr)
			}
		}
		if !done {
			access(e, w, pass, &a.Addr, vr, dr)
			n = e.lineCount(pass, &a.Addr, size)
		}
		if n > 1 {
			lat += n - 1
		}
		w.vtime += lat + extra
		return exec
	}
}

// check is phase 1 of a compiled memory instruction: it loads the exec
// lanes' addresses (ar + off) into e.acc.Addr and runs the extent check,
// mirroring the cycle simulator's LSU. A checked site judges coalescing
// on raw (possibly tagged) pointer lines over every exec lane and calls
// the mechanism's hook until no lane faults, recording each fault and
// suppressing its lane; an E-hinted site, whose access the compiler
// proved in-bounds, canonicalises the addresses directly. It returns the
// lanes whose access proceeds and the mechanism's extra cycles. When a
// fault halts the launch, the lanes above the halting one are neither
// checked nor accessed.
func (e *engine) check(w *fwarp, exec uint32, ar *[32]uint64, off uint64, hintE bool, pc int) (pass uint32, extra uint64) {
	a := &e.acc
	if hintE {
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a.Addr[lane] = e.mech.Canonical(ar[lane] + off)
		}
		e.stats.ECElided += uint64(bits.OnesCount32(exec))
		return exec, 0
	}
	var (
		co       uint32
		prevLine uint64
		havePrev bool
	)
	shift := e.lineShift
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		raw := ar[lane] + off
		a.Addr[lane] = raw
		line := raw >> shift
		if havePrev && line == prevLine {
			co |= 1 << lane
		}
		prevLine, havePrev = line, true
	}
	a.Coalesced = co
	pass, checked := exec, exec
	for m := exec; m != 0; {
		x, lane, fault := e.mech.CheckAccess(a, m)
		extra += x
		if fault == nil {
			break
		}
		e.recordFault(fault, pc, w, lane)
		pass &^= 1 << lane
		if e.halted {
			below := uint32(1)<<lane - 1
			pass &= below
			checked &= below | 1<<lane
			break
		}
		m &= ^uint32(0) << (lane + 1)
	}
	e.stats.ECChecked += uint64(bits.OnesCount32(checked))
	return pass, extra
}

// memAccessFn is phase 3 of a compiled memory instruction: the
// functional access of every lane in lanes at its effective address,
// loading into dr and storing from vr.
type memAccessFn func(e *engine, w *fwarp, lanes uint32, addrs, vr, dr *[32]uint64)

// accessLoop picks the access loop of a memory opcode. Global and
// shared accesses share one page window (mem.PageWin) across the lanes.
func accessLoop(op isa.Opcode, size uint64, signExt bool) memAccessFn {
	space := op.MemSpace()
	if space == isa.SpaceLocal {
		if op.IsStore() {
			return func(_ *engine, w *fwarp, lanes uint32, addrs, vr, _ *[32]uint64) {
				for m := lanes; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					w.local(lane).Write(addrs[lane], vr[lane], int(size))
				}
			}
		}
		return func(_ *engine, w *fwarp, lanes uint32, addrs, _, dr *[32]uint64) {
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				dr[lane] = loadValue(w.local(lane).Read(addrs[lane], int(size)), signExt)
			}
		}
	}
	global := space == isa.SpaceGlobal
	switch {
	case op == isa.ATOMG || op == isa.ATOMS:
		return func(e *engine, _ *fwarp, lanes uint32, addrs, vr, dr *[32]uint64) {
			pw := mem.NewPageWin(e.space(global))
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				old := pw.Load(addrs[lane], size)
				pw.Store(addrs[lane], uint64(uint32(int32(old)+int32(vr[lane]))), size)
				dr[lane] = old
			}
		}
	case op.IsStore():
		return func(e *engine, _ *fwarp, lanes uint32, addrs, vr, _ *[32]uint64) {
			pw := mem.NewPageWin(e.space(global))
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				pw.Store(addrs[lane], vr[lane], size)
			}
		}
	default:
		return func(e *engine, _ *fwarp, lanes uint32, addrs, _, dr *[32]uint64) {
			pw := mem.NewPageWin(e.space(global))
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				dr[lane] = loadValue(pw.Load(addrs[lane], size), signExt)
			}
		}
	}
}

// unitFn is the unit-stride access path of a 4-byte global or shared
// memory opcode: lane l of lanes accesses lo + 4*(l - first lane), all
// inside lo's page.
type unitFn func(e *engine, lanes uint32, lo uint64, vr, dr *[32]uint64)

// unitLoop picks the unit-stride access path of a 4-byte global or
// shared memory opcode: one page window, then direct little-endian
// 4-byte loads or stores.
func unitLoop(op isa.Opcode, signExt bool) unitFn {
	global := op.MemSpace() == isa.SpaceGlobal
	switch {
	case op == isa.ATOMG || op == isa.ATOMS:
		return func(e *engine, lanes uint32, lo uint64, vr, dr *[32]uint64) {
			win := e.space(global).PageWindow(lo, true)
			first := bits.TrailingZeros32(lanes)
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				b := win[4*(lane-first):]
				old := binary.LittleEndian.Uint32(b)
				binary.LittleEndian.PutUint32(b, uint32(int32(old)+int32(vr[lane])))
				dr[lane] = uint64(old)
			}
		}
	case op.IsStore():
		return func(e *engine, lanes uint32, lo uint64, vr, _ *[32]uint64) {
			win := e.space(global).PageWindow(lo, true)
			first := bits.TrailingZeros32(lanes)
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				binary.LittleEndian.PutUint32(win[4*(lane-first):], uint32(vr[lane]))
			}
		}
	default:
		return func(e *engine, lanes uint32, lo uint64, _, dr *[32]uint64) {
			win := e.space(global).PageWindow(lo, false)
			first := bits.TrailingZeros32(lanes)
			for m := lanes; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				var v uint64 // an unmapped page reads as zero
				if win != nil {
					v = loadValue(uint64(binary.LittleEndian.Uint32(win[4*(lane-first):])), signExt)
				}
				dr[lane] = v
			}
		}
	}
}

// unitSpan reports whether the 4-byte accesses of lanes are unit-stride
// inside one page: lane l at lo + 4*(l - first lane). It also returns
// the number of cache lines (1<<shift bytes) the accesses touch,
// computed from the first and last address; that span count is exact
// when no line strictly inside the span is skipped, which holds for
// contiguous lanes or a span of at most two lines, and unitSpan
// declines otherwise.
func unitSpan(addrs *[32]uint64, lanes uint32, shift uint) (lo, lines uint64, ok bool) {
	if lanes == 0 {
		return 0, 0, false
	}
	first := bits.TrailingZeros32(lanes)
	last := 31 - bits.LeadingZeros32(lanes)
	lo = addrs[first]
	base := lo - 4*uint64(first)
	for m := lanes; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		if addrs[lane] != base+4*uint64(lane) {
			return 0, 0, false
		}
	}
	end := base + 4*uint64(last) + 3 // the last byte accessed
	if end < lo || lo/mem.PageWindowSize != end/mem.PageWindowSize {
		return 0, 0, false
	}
	lines = end>>shift - lo>>shift + 1
	if lines > 2 && lanes>>first != 1<<(last-first+1)-1 {
		return 0, 0, false
	}
	return lo, lines, true
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

// lineCount is phase 4 of a compiled memory instruction: the number of
// distinct cache lines the size-byte accesses of lanes touch, a lane
// whose access straddles a line boundary touching the next line too.
func (e *engine) lineCount(lanes uint32, addrs *[32]uint64, size uint64) uint64 {
	lineSize := uint64(1) << e.lineShift
	lines := e.lines[:0]
	var (
		prev     uint64
		havePrev bool
	)
	for m := lanes; m != 0; m &= m - 1 {
		eff := addrs[bits.TrailingZeros32(m)]
		la := eff >> e.lineShift
		if !havePrev || la != prev {
			lines = addLineSet(lines, la)
		}
		prev, havePrev = la, true
		if eff&(lineSize-1)+size > lineSize {
			lines = addLineSet(lines, la+1)
		}
	}
	return uint64(len(lines))
}

// loadValue applies a load's sign-extension flag (32-bit loads only) to
// the loaded value.
func loadValue(v uint64, signExt bool) uint64 {
	if signExt {
		return isa.Sx32(int32(uint32(v)))
	}
	return v
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
