package fastsim

import (
	"encoding/binary"
	"math/bits"

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
//  1. the EC site (sim.Exec.CheckAccess);
//  2. observation: trace addresses and race-oracle shadowing
//     (sim.Exec.Observe);
//  3. the functional access: the lane kernel resolved here
//     (sim.MemKernelOf), or the unit-stride path for a 4-byte global or
//     shared access whose lanes all passed (see unitSpan);
//  4. the transaction-line count of the timing estimate (sim.LineSet).
func (cc *compiler) memClosure(in *isa.Instr, pc int, g guard) opFn {
	op := in.Op
	space := op.MemSpace()
	size := in.AccSize()
	isStore := op.IsStore()
	addr, data, dst := cc.reg(in.Src[0]), cc.reg(in.Src[1]), cc.dst(in)
	off := isa.Sx32(in.Imm)
	hintE := in.Hint.E
	global, access := space == isa.SpaceGlobal, sim.MemKernelOf(in)
	var unit unitFn
	if size == 4 && space != isa.SpaceLocal {
		unit = unitLoop(op, in.SignExtend())
	}
	// Only shared memory is shadowed; whether the race oracle is armed
	// is a per-launch runtime decision (closures are cached across
	// launches).
	shadowed := space == isa.SpaceShared

	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g.exec(w, active)
		e.Count(exec)
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
		e.MemInstrs[op]++

		a := &e.Acc
		a.SM, a.Space, a.Size, a.Store, a.Cycle = e.smID, space, size, isStore, e.blockBase+w.vtime
		pass, extra := e.CheckAccess(exec, w.row(addr), off, hintE, pc, w.globalID)
		var shadow *sim.BlockShadow
		if shadowed {
			shadow = e.shadow
		}
		e.Observe(pass, shadow, op, pc, w.warpIdx)

		vr, dr := w.row(data), w.row(dst)
		if e.Halted {
			access(e.space(global), w.locals, pass, &a.Addr, vr, dr)
			return exec
		}
		var (
			n    uint64
			done bool
		)
		if unit != nil && pass == exec {
			var lo uint64
			if lo, n, done = unitSpan(&a.Addr, exec, e.LineShift); done {
				unit(e, exec, lo, vr, dr)
			}
		}
		if !done {
			access(e.space(global), w.locals, pass, &a.Addr, vr, dr)
			lines := &e.Lines
			lines.Reset()
			for m := pass; m != 0; m &= m - 1 {
				lines.Add(a.Addr[bits.TrailingZeros32(m)], size, e.LineShift)
			}
			n = uint64(len(lines.Lines()))
		}
		if n > 1 {
			lat += n - 1
		}
		w.vtime += lat + extra
		return exec
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
					v = sim.LoadValue(uint64(binary.LittleEndian.Uint32(win[4*(lane-first):])), signExt)
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

// heapClosure compiles a device MALLOC/FREE intrinsic (sim.Exec.Heap)
// with its latency estimate; tagging is skipped when MALLOC's
// destination is RZ.
func (cc *compiler) heapClosure(in *isa.Instr, pc int, g guard) opFn {
	op := in.Op
	src, tag, dst := cc.reg(in.Src[0]), op == isa.MALLOC && in.Dst != isa.RZ, cc.dst(in)

	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g.exec(w, active)
		e.Count(exec)
		if exec != 0 {
			e.MemInstrs[op]++
		}
		w.sinceProg = 0
		var dr *[32]uint64
		if tag {
			dr = w.row(dst)
		}
		e.Heap(op, exec, w.row(src), dr, e.at(pc, w))
		if !e.Halted {
			w.vtime += e.cfg.MallocBaseLatency + e.cfg.MallocLaneLatency*uint64(bits.OnesCount32(exec))
		}
		return exec
	}
}
