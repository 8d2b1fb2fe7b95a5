package sim

import (
	"fmt"
	"math"
	"math/bits"

	"lmi/internal/core"
	"lmi/internal/isa"
)

// sx32 sign-extends a 32-bit value into the 64-bit register convention:
// i32 values live sign-extended in 64-bit registers.
func sx32(x int32) uint64 { return uint64(int64(x)) }

func f32bits(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func bitsf32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// fullWarp is the exec mask of a warp instruction all 32 lanes execute.
const fullWarp = ^uint32(0)

// row returns register r's row of 32 lanes in the warp's register-major
// register file; RZ reads the launch's zero row.
func (ls *launch) row(w *warp, r isa.Reg) *[32]uint64 {
	if r == isa.RZ {
		return &ls.zero
	}
	return (*[32]uint64)(w.rf[int(r)*32:])
}

// operand returns source operand i of the instruction at pc: the
// broadcast row of its sign-extended immediate in the immediate form
// (callers pass the operand index the opcode's immediate replaces),
// else register Src[i]'s row.
func (ls *launch) operand(w *warp, in *isa.Instr, pc, i int) *[32]uint64 {
	if in.HasImm {
		return ls.imm[pc]
	}
	return ls.row(w, in.Src[i])
}

// result returns the row an ALU opcode computes its 32 lanes into. When
// every lane executes and no pointer check follows, that is the
// destination row itself: lane l of every opcode depends only on lane l
// of its sources, so a source aliasing the destination is safe.
// Otherwise it is the launch's scratch row, whose exec lanes writeback
// commits (an A-hinted op reads its pointer operand after computing,
// so it never writes the destination early).
func (ls *launch) result(w *warp, in *isa.Instr, exec uint32) *[32]uint64 {
	if exec == fullWarp && in.Dst != isa.RZ && !in.Hint.A {
		return ls.row(w, in.Dst)
	}
	return &ls.res
}

// issue executes one instruction for a warp: functional semantics plus
// timing bookkeeping (scoreboard updates, memory latencies, mechanism
// hooks). Each ALU opcode is one loop over all 32 lanes of its source
// rows into a result row (see result), followed by one shared finish
// step (finishInt or writeback) that commits the exec lanes. Computing
// the lanes outside the exec mask is safe because no ALU opcode has a
// side effect or can trap (the ISA has no division); the mechanism
// hooks, memory, heap, LDC and S2R visit only the exec lanes, in
// ascending lane order.
func (ls *launch) issue(sm *smCtx, w *warp) {
	top := &w.stack[len(w.stack)-1]
	pc := int(top.pc)
	in := &ls.prog.Instrs[pc]
	active := top.mask &^ w.exited

	// The guard predicate is a lane mask, complemented for @!P.
	guard := w.preds[in.Pred&7]
	if in.PredNeg {
		guard = ^guard
	}
	exec := active & guard

	ls.stats.Instrs++
	ls.stats.ThreadInstrs += uint64(bits.OnesCount32(exec))
	if in.Op.IsMemory() && exec != 0 {
		ls.memInstrs[in.Op]++
	}
	if ls.dev.Tracer != nil {
		ls.traceEv.Addrs = ls.traceEv.Addrs[:0]
		defer ls.emitTrace(sm, w, in, pc, exec)
	}

	w.nextIssue = ls.cycle + 1
	cfg := &ls.dev.Cfg

	advance := true
	switch in.Op {
	case isa.NOP, isa.SYNC:
		// SYNC is a no-op: reconvergence is driven by the rpc check.
	case isa.SSY:
		w.pendingSSY = in.Target
	case isa.MOV:
		a, d := ls.operand(w, in, pc, 0), ls.result(w, in, exec)
		*d = *a
		ls.finishInt(w, in, exec, d)
	case isa.IADD:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = a[l] + b[l]
		}
		ls.finishInt(w, in, exec, d)
	case isa.IADD3:
		a, b, c, d := ls.row(w, in.Src[0]), ls.row(w, in.Src[1]), ls.operand(w, in, pc, 2), ls.result(w, in, exec)
		for l := range d {
			d[l] = a[l] + b[l] + c[l]
		}
		ls.finishInt(w, in, exec, d)
	case isa.IMUL:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = uint64(int64(a[l]) * int64(b[l]))
		}
		ls.finishInt(w, in, exec, d)
	case isa.IMAD:
		a, b, c, d := ls.row(w, in.Src[0]), ls.row(w, in.Src[1]), ls.operand(w, in, pc, 2), ls.result(w, in, exec)
		for l := range d {
			d[l] = uint64(int64(a[l])*int64(b[l]) + int64(c[l]))
		}
		ls.finishInt(w, in, exec, d)
	case isa.IMNMX:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		if in.Aux == 1 {
			for l := range d {
				d[l] = uint64(max(int64(a[l]), int64(b[l])))
			}
		} else {
			for l := range d {
				d[l] = uint64(min(int64(a[l]), int64(b[l])))
			}
		}
		ls.finishInt(w, in, exec, d)
	case isa.SHL:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		if in.W64() {
			for l := range d {
				d[l] = a[l] << (b[l] & 63)
			}
		} else {
			for l := range d {
				d[l] = uint64(uint32(a[l]) << (b[l] & 31))
			}
		}
		ls.finishInt(w, in, exec, d)
	case isa.SHR:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		if in.W64() {
			for l := range d {
				d[l] = a[l] >> (b[l] & 63)
			}
		} else {
			// 32-bit logical shift (the narrowing in finishInt
			// sign-extends the 32-bit result into the register).
			for l := range d {
				d[l] = uint64(uint32(a[l]) >> (b[l] & 31))
			}
		}
		ls.finishInt(w, in, exec, d)
	case isa.AND:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = a[l] & b[l]
		}
		ls.finishInt(w, in, exec, d)
	case isa.OR:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = a[l] | b[l]
		}
		ls.finishInt(w, in, exec, d)
	case isa.XOR:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = a[l] ^ b[l]
		}
		ls.finishInt(w, in, exec, d)
	case isa.SETP:
		a, b := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1)
		var set uint32
		for l := range a {
			if cmpSigned(isa.CmpOp(in.Aux), int64(a[l]), int64(b[l])) {
				set |= 1 << l
			}
		}
		ls.writePred(w, in, exec, set&exec, cfg.IntLatency)
	case isa.FSETP:
		a, b := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1)
		var set uint32
		for l := range a {
			if cmpF32(isa.CmpOp(in.Aux), f32bits(a[l]), f32bits(b[l])) {
				set |= 1 << l
			}
		}
		ls.writePred(w, in, exec, set&exec, cfg.FPLatency)
	case isa.SEL:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		sel := w.preds[in.Aux&7]
		for l := range d {
			if sel>>l&1 != 0 {
				d[l] = a[l]
			} else {
				d[l] = b[l]
			}
		}
		ls.finishInt(w, in, exec, d)
	case isa.FADD:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = bitsf32(f32bits(a[l]) + f32bits(b[l]))
		}
		ls.writeback(w, in, exec, d, cfg.FPLatency)
	case isa.FMUL:
		a, b, d := ls.row(w, in.Src[0]), ls.operand(w, in, pc, 1), ls.result(w, in, exec)
		for l := range d {
			d[l] = bitsf32(f32bits(a[l]) * f32bits(b[l]))
		}
		ls.writeback(w, in, exec, d, cfg.FPLatency)
	case isa.FFMA:
		a, b, c, d := ls.row(w, in.Src[0]), ls.row(w, in.Src[1]), ls.operand(w, in, pc, 2), ls.result(w, in, exec)
		for l := range d {
			d[l] = bitsf32(f32bits(a[l])*f32bits(b[l]) + f32bits(c[l]))
		}
		ls.writeback(w, in, exec, d, cfg.FPLatency)
	case isa.MUFU:
		fn := isa.MufuFn(in.Aux)
		a, d := ls.row(w, in.Src[0]), ls.result(w, in, exec)
		for l := range d {
			d[l] = mufu(fn, f32bits(a[l]))
		}
		ls.writeback(w, in, exec, d, cfg.MufuLatency)
	case isa.F2I:
		// F2I and I2F read the register form regardless of HasImm.
		a, d := ls.row(w, in.Src[0]), ls.result(w, in, exec)
		for l := range d {
			d[l] = sx32(int32(f32bits(a[l])))
		}
		ls.writeback(w, in, exec, d, cfg.FPLatency)
	case isa.I2F:
		a, d := ls.row(w, in.Src[0]), ls.result(w, in, exec)
		for l := range d {
			d[l] = bitsf32(float32(int64(a[l])))
		}
		ls.writeback(w, in, exec, d, cfg.FPLatency)
	case isa.S2R:
		d := ls.result(w, in, exec)
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = ls.specialReg(w, l, isa.SReg(in.Aux))
		}
		ls.writeback(w, in, exec, d, cfg.IntLatency)
	case isa.LDG, isa.STG, isa.LDS, isa.STS, isa.LDL, isa.STL, isa.ATOMG, isa.ATOMS:
		ls.memAccess(sm, w, in, exec, pc)
	case isa.LDC:
		a, d := ls.row(w, in.Src[0]), ls.result(w, in, exec)
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = ls.cbank.Read(a[l]+sx32(in.Imm), int(in.AccSize()))
		}
		ls.writeback(w, in, exec, d, cfg.ConstLatency)
	case isa.MALLOC, isa.FREE:
		ls.heapOp(sm, w, in, exec, pc)
	case isa.TRAP:
		if exec != 0 {
			// One record per warp instruction suffices.
			ls.recordFault(core.NewFault(core.FaultSpatial, 0, 0,
				fmt.Sprintf("software bounds check trap (code %d)", in.Imm)),
				pc, sm.id, w.globalID, bits.TrailingZeros32(exec))
		}
	case isa.BAR:
		w.atBarrier = true
		w.barrierSince = ls.cycle
		blk := w.block
		blk.parked++
		if blk.parked == blk.live {
			sm.releasable++
		}
	case isa.EXIT:
		// Only lanes whose guard predicate held retire: a predicated
		// @!P EXIT must leave the other lanes running.
		w.exited |= exec
		ls.progress()
		top.pc++
		w.syncTop()
		return
	case isa.BRA:
		advance = false
		ls.branch(w, top, pc, active, exec)
	default:
		ls.runErr = fmt.Errorf("sim: %s: unhandled opcode %s at pc %d", ls.prog.Name, in.Op, pc)
		ls.halted = true
		return
	}
	if advance {
		top.pc++
	}
}

// finishInt completes an integer ALU instruction (every OCU-eligible
// opcode) whose 32 lanes are computed in res: it narrows them to 32
// bits, sign-extended, unless the W64 flag is set; runs the mechanism's
// pointer check on each exec lane in ascending order when the
// Activation hint is set; and writes back with the integer latency plus
// the largest extra latency the check reported.
func (ls *launch) finishInt(w *warp, in *isa.Instr, exec uint32, res *[32]uint64) {
	if !in.W64() {
		for l := range res {
			res[l] = sx32(int32(res[l]))
		}
	}
	extraMax := uint64(0)
	if in.Hint.A {
		ptr := ls.row(w, in.Src[in.Hint.PointerOperand()])
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			out, extra := ls.dev.Mech.CheckPointerOp(ptr[l], res[l])
			res[l] = out
			extraMax = max(extraMax, extra)
			ls.stats.PointerChecks++
		}
	}
	ls.writeback(w, in, exec, res, ls.dev.Cfg.IntLatency+extraMax)
}

// writeback commits result row res to the destination register — the
// whole row for a full warp, the exec lanes otherwise, nothing when
// result already computed into the destination — and marks the
// register ready lat cycles from now (RZ discards both).
func (ls *launch) writeback(w *warp, in *isa.Instr, exec uint32, res *[32]uint64, lat uint64) {
	if in.Dst == isa.RZ {
		return
	}
	d := ls.row(w, in.Dst)
	if res != d {
		if exec == fullWarp {
			*d = *res
		} else {
			for m := exec; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				d[l] = res[l]
			}
		}
	}
	w.regReady[in.Dst] = max(w.regReady[in.Dst], ls.cycle+lat)
}

// writePred stores a SETP/FSETP result: the executing lanes' bits of the
// destination predicate become set, and the predicate is ready lat
// cycles from now.
func (ls *launch) writePred(w *warp, in *isa.Instr, exec, set uint32, lat uint64) {
	pd := in.Dst & 7
	w.preds[pd] = w.preds[pd]&^exec | set
	w.predReady[pd] = max(w.predReady[pd], ls.cycle+lat)
}

// mufu evaluates a special-function-unit opcode.
func mufu(fn isa.MufuFn, x float32) uint64 {
	switch fn {
	case isa.MufuRCP:
		return bitsf32(1 / x)
	case isa.MufuSQRT:
		return bitsf32(float32(math.Sqrt(float64(x))))
	case isa.MufuEX2:
		return bitsf32(float32(math.Exp2(float64(x))))
	case isa.MufuLG2:
		return bitsf32(float32(math.Log2(float64(x))))
	case isa.MufuSIN:
		return bitsf32(float32(math.Sin(float64(x))))
	default:
		return 0
	}
}

// emitTrace delivers one executed instruction to the attached tracer
// (memAccess has already collected the lane addresses into traceEv).
func (ls *launch) emitTrace(sm *smCtx, w *warp, in *isa.Instr, pc int, exec uint32) {
	ls.traceEv.PC = pc
	ls.traceEv.Op = in.Op
	ls.traceEv.SM = sm.id
	ls.traceEv.Warp = w.globalID
	ls.traceEv.Active = exec
	ls.traceEv.HintA = in.Hint.A
	ls.dev.Tracer.Trace(&ls.traceEv)
}

// branch implements the SIMT reconvergence-stack transform for a
// (possibly divergent) predicated branch.
func (ls *launch) branch(w *warp, top *simtEntry, pc int, active, taken uint32) {
	in := &ls.prog.Instrs[pc]
	switch {
	case taken == active:
		top.pc = in.Target
	case taken == 0:
		top.pc = int32(pc) + 1
	default:
		rpc := w.pendingSSY
		if rpc < 0 {
			ls.runErr = fmt.Errorf("sim: %s: divergent branch at pc %d without SSY", ls.prog.Name, pc)
			ls.halted = true
			return
		}
		// The current entry becomes the reconvergence continuation; the
		// two paths are pushed above it and each pops when its pc reaches
		// rpc (GPGPU-Sim style post-dominator stack).
		top.pc = rpc
		w.stack = append(w.stack,
			simtEntry{pc: int32(pc) + 1, rpc: rpc, mask: active &^ taken},
			simtEntry{pc: in.Target, rpc: rpc, mask: taken},
		)
	}
	w.pendingSSY = -1
}

// specialReg reads an S2R value for a lane.
func (ls *launch) specialReg(w *warp, lane int, sr isa.SReg) uint64 {
	tid := w.warpIdx*32 + lane
	switch sr {
	case isa.SRTidX:
		return uint64(tid % ls.bdimX)
	case isa.SRTidY:
		return uint64(tid / ls.bdimX)
	case isa.SRCtaidX:
		return uint64(w.block.ctaid % ls.gridX)
	case isa.SRCtaidY:
		return uint64(w.block.ctaid / ls.gridX)
	case isa.SRNtidX:
		return uint64(ls.bdimX)
	case isa.SRNtidY:
		return uint64(ls.bdim / ls.bdimX)
	case isa.SRNctaidX:
		return uint64(ls.gridX)
	case isa.SRNctaidY:
		return uint64(ls.grid / ls.gridX)
	case isa.SRLaneID:
		return uint64(lane)
	case isa.SRWarpID:
		return uint64(w.warpIdx)
	case isa.SRSMID:
		return uint64(w.sm.id)
	default:
		return 0
	}
}

func cmpSigned(op isa.CmpOp, a, b int64) bool {
	switch op {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	default:
		return false
	}
}

func cmpF32(op isa.CmpOp, a, b float32) bool {
	switch op {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	default:
		return false
	}
}
