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

// src reads register r of lane l; RZ reads as zero.
func (w *warp) src(l int, r isa.Reg) uint64 {
	if r == isa.RZ {
		return 0
	}
	return w.rf[l*w.nregs+int(r)]
}

// immOr returns source operand i of lane l, replaced by the
// sign-extended immediate in the immediate form.
func (w *warp) immOr(in *isa.Instr, l, i int) uint64 {
	if in.HasImm {
		return sx32(in.Imm)
	}
	return w.src(l, in.Src[i])
}

// issue executes one instruction for a warp: functional semantics plus
// timing bookkeeping (scoreboard updates, memory latencies, mechanism
// hooks). ALU opcodes compute every executing lane into res, in
// ascending lane order, and then share one finish step (finishInt or
// writeback).
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
		ls.stats.MemInstrs[in.Op]++
	}
	if ls.dev.Tracer != nil {
		ls.traceEv.Addrs = ls.traceEv.Addrs[:0]
		defer ls.emitTrace(sm, w, in, pc, exec)
	}

	w.nextIssue = ls.cycle + 1
	cfg := &ls.dev.Cfg
	s0, s1 := in.Src[0], in.Src[1]
	var res [32]uint64

	advance := true
	switch in.Op {
	case isa.NOP, isa.SYNC:
		// SYNC is a no-op: reconvergence is driven by the rpc check.
	case isa.SSY:
		w.pendingSSY = in.Target
	case isa.MOV:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = w.immOr(in, l, 0)
		}
		ls.finishInt(w, in, exec, &res)
	case isa.IADD:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = w.src(l, s0) + w.immOr(in, l, 1)
		}
		ls.finishInt(w, in, exec, &res)
	case isa.IADD3:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = w.src(l, s0) + w.src(l, s1) + w.immOr(in, l, 2)
		}
		ls.finishInt(w, in, exec, &res)
	case isa.IMUL:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = uint64(int64(w.src(l, s0)) * int64(w.immOr(in, l, 1)))
		}
		ls.finishInt(w, in, exec, &res)
	case isa.IMAD:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = uint64(int64(w.src(l, s0))*int64(w.src(l, s1)) + int64(w.immOr(in, l, 2)))
		}
		ls.finishInt(w, in, exec, &res)
	case isa.IMNMX:
		isMax := in.Aux == 1
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			a, b := int64(w.src(l, s0)), int64(w.immOr(in, l, 1))
			if isMax == (a > b) {
				res[l] = uint64(a)
			} else {
				res[l] = uint64(b)
			}
		}
		ls.finishInt(w, in, exec, &res)
	case isa.SHL:
		w64 := in.W64()
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if w64 {
				res[l] = w.src(l, s0) << (w.immOr(in, l, 1) & 63)
			} else {
				res[l] = uint64(uint32(w.src(l, s0)) << (w.immOr(in, l, 1) & 31))
			}
		}
		ls.finishInt(w, in, exec, &res)
	case isa.SHR:
		w64 := in.W64()
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if w64 {
				res[l] = w.src(l, s0) >> (w.immOr(in, l, 1) & 63)
			} else {
				// 32-bit logical shift (the narrowing in finishInt
				// sign-extends the 32-bit result into the register).
				res[l] = uint64(uint32(w.src(l, s0)) >> (w.immOr(in, l, 1) & 31))
			}
		}
		ls.finishInt(w, in, exec, &res)
	case isa.AND:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = w.src(l, s0) & w.immOr(in, l, 1)
		}
		ls.finishInt(w, in, exec, &res)
	case isa.OR:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = w.src(l, s0) | w.immOr(in, l, 1)
		}
		ls.finishInt(w, in, exec, &res)
	case isa.XOR:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = w.src(l, s0) ^ w.immOr(in, l, 1)
		}
		ls.finishInt(w, in, exec, &res)
	case isa.SETP:
		var set uint32
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if cmpSigned(isa.CmpOp(in.Aux), int64(w.src(l, s0)), int64(w.immOr(in, l, 1))) {
				set |= 1 << uint(l)
			}
		}
		ls.writePred(w, in, exec, set, cfg.IntLatency)
	case isa.FSETP:
		var set uint32
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if cmpF32(isa.CmpOp(in.Aux), f32bits(w.src(l, s0)), f32bits(w.immOr(in, l, 1))) {
				set |= 1 << uint(l)
			}
		}
		ls.writePred(w, in, exec, set, cfg.FPLatency)
	case isa.SEL:
		sel := w.preds[in.Aux&7]
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if sel&(1<<uint(l)) != 0 {
				res[l] = w.src(l, s0)
			} else {
				res[l] = w.immOr(in, l, 1)
			}
		}
		ls.finishInt(w, in, exec, &res)
	case isa.FADD:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = bitsf32(f32bits(w.src(l, s0)) + f32bits(w.immOr(in, l, 1)))
		}
		ls.writeback(w, in, exec, &res, cfg.FPLatency)
	case isa.FMUL:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = bitsf32(f32bits(w.src(l, s0)) * f32bits(w.immOr(in, l, 1)))
		}
		ls.writeback(w, in, exec, &res, cfg.FPLatency)
	case isa.FFMA:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = bitsf32(f32bits(w.src(l, s0))*f32bits(w.src(l, s1)) + f32bits(w.immOr(in, l, 2)))
		}
		ls.writeback(w, in, exec, &res, cfg.FPLatency)
	case isa.MUFU:
		fn := isa.MufuFn(in.Aux)
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = mufu(fn, f32bits(w.src(l, s0)))
		}
		ls.writeback(w, in, exec, &res, cfg.MufuLatency)
	case isa.F2I:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = sx32(int32(f32bits(w.src(l, s0))))
		}
		ls.writeback(w, in, exec, &res, cfg.FPLatency)
	case isa.I2F:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = bitsf32(float32(int64(w.src(l, s0))))
		}
		ls.writeback(w, in, exec, &res, cfg.FPLatency)
	case isa.S2R:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = ls.specialReg(w, l, isa.SReg(in.Aux))
		}
		ls.writeback(w, in, exec, &res, cfg.IntLatency)
	case isa.LDG, isa.STG, isa.LDS, isa.STS, isa.LDL, isa.STL, isa.ATOMG, isa.ATOMS:
		ls.memAccess(sm, w, in, exec, pc)
	case isa.LDC:
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = ls.cbank.Read(w.src(l, s0)+sx32(in.Imm), int(in.AccSize()))
		}
		ls.writeback(w, in, exec, &res, cfg.ConstLatency)
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
// opcode): it narrows each executing lane's raw result to 32 bits,
// sign-extended, unless the W64 flag is set; runs the mechanism's
// pointer check in ascending lane order when the Activation hint is set;
// and writes back with the integer latency plus the largest extra
// latency the check reported.
func (ls *launch) finishInt(w *warp, in *isa.Instr, exec uint32, res *[32]uint64) {
	if !in.W64() {
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res[l] = sx32(int32(res[l]))
		}
	}
	extraMax := uint64(0)
	if in.Hint.A {
		ptr := in.Src[in.Hint.PointerOperand()]
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			out, extra := ls.dev.Mech.CheckPointerOp(w.src(l, ptr), res[l])
			res[l] = out
			extraMax = max(extraMax, extra)
			ls.stats.PointerChecks++
		}
	}
	ls.writeback(w, in, exec, res, ls.dev.Cfg.IntLatency+extraMax)
}

// writeback stores each executing lane's result into the destination
// register and marks it ready lat cycles from now (RZ discards both).
func (ls *launch) writeback(w *warp, in *isa.Instr, exec uint32, res *[32]uint64, lat uint64) {
	if in.Dst == isa.RZ {
		return
	}
	rf, n, d := w.rf, w.nregs, int(in.Dst)
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		rf[l*n+d] = res[l]
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
