package sim

import (
	"fmt"
	"math/bits"

	"lmi/internal/core"
	"lmi/internal/isa"
)

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

// operands returns the three source rows of the instruction at pc:
// register Src[i]'s row, except that in the immediate form the operand
// ImmSrcIndex names reads the broadcast row of the sign-extended
// immediate (immRows built it exactly for those instructions).
func (ls *launch) operands(w *warp, in *isa.Instr, pc int) (a, b, c *[32]uint64) {
	a, b, c = ls.row(w, in.Src[0]), ls.row(w, in.Src[1]), ls.row(w, in.Src[2])
	if imm := ls.imm[pc]; imm != nil {
		switch in.Op.ImmSrcIndex() {
		case 0:
			a = imm
		case 1:
			b = imm
		case 2:
			c = imm
		}
	}
	return a, b, c
}

// compute runs the ALU kernel of the instruction at pc over its source
// rows and returns the row it computed into (see result).
func (ls *launch) compute(w *warp, in *isa.Instr, pc int, exec uint32) *[32]uint64 {
	k := &ls.alu[pc]
	a, b, c := ls.operands(w, in, pc)
	d := ls.result(w, in, exec)
	k.Row(d, a, b, c, w.preds[k.Sel])
	return d
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
// hooks). An ALU opcode runs its isa kernel over all 32 lanes of its
// source rows into a result row (see compute), followed by the finish
// step of its latency class (finishInt, writeback or writePred) that
// commits the exec lanes. The mechanism hooks, memory, heap, LDC and
// S2R visit only the exec lanes, in ascending lane order.
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
	case isa.MOV, isa.IADD, isa.IADD3, isa.IMUL, isa.IMAD, isa.IMNMX, isa.SHL, isa.SHR,
		isa.AND, isa.OR, isa.XOR, isa.SEL:
		ls.finishInt(w, in, exec, ls.compute(w, in, pc, exec))
	case isa.FADD, isa.FMUL, isa.FFMA, isa.F2I, isa.I2F:
		ls.writeback(w, in, exec, ls.compute(w, in, pc, exec), cfg.FPLatency)
	case isa.MUFU:
		ls.writeback(w, in, exec, ls.compute(w, in, pc, exec), cfg.MufuLatency)
	case isa.SETP:
		a, b, _ := ls.operands(w, in, pc)
		ls.writePred(w, in, exec, ls.alu[pc].Set(a, b)&exec, cfg.IntLatency)
	case isa.FSETP:
		a, b, _ := ls.operands(w, in, pc)
		ls.writePred(w, in, exec, ls.alu[pc].Set(a, b)&exec, cfg.FPLatency)
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
			d[l] = ls.cbank.Read(a[l]+isa.Sx32(in.Imm), int(in.AccSize()))
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
			res[l] = isa.Sx32(int32(res[l]))
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
