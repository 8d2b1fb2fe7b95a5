package sim

import (
	"fmt"
	"math/bits"

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
	pc := int(w.PC())
	in := &ls.Prog.Instrs[pc]
	active := w.Active()

	// The guard predicate is a lane mask, complemented for @!P.
	guard := w.preds[in.Pred&7]
	if in.PredNeg {
		guard = ^guard
	}
	exec := active & guard

	ls.Count(exec)
	if in.Op.IsMemory() && exec != 0 {
		ls.MemInstrs[in.Op]++
	}
	if ls.Dev.Tracer != nil {
		ls.TraceEv.Addrs = ls.TraceEv.Addrs[:0]
		defer ls.EmitTrace(pc, in.Op, in.Hint.A, sm.id, w.globalID, exec)
	}

	w.nextIssue = ls.cycle + 1
	cfg := &ls.Dev.Cfg

	advance := true
	switch in.Op {
	case isa.NOP, isa.SYNC:
		// SYNC is a no-op: reconvergence is driven by the rpc check.
	case isa.SSY:
		w.SSY(in.Target)
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
		ls.SpecialReg(d, exec, isa.SReg(in.Aux), w.block.ctaid, w.warpIdx, sm.id)
		ls.writeback(w, in, exec, d, cfg.IntLatency)
	case isa.LDG, isa.STG, isa.LDS, isa.STS, isa.LDL, isa.STL, isa.ATOMG, isa.ATOMS:
		ls.memAccess(sm, w, in, exec, pc)
	case isa.LDC:
		d := ls.result(w, in, exec)
		ls.LoadConst(d, ls.row(w, in.Src[0]), exec, isa.Sx32(in.Imm), in.AccSize())
		ls.writeback(w, in, exec, d, cfg.ConstLatency)
	case isa.MALLOC, isa.FREE:
		ls.heapOp(sm, w, in, exec, pc)
	case isa.TRAP:
		ls.Trap(in.Imm, exec, FaultRecord{PC: pc, SM: sm.id, Warp: w.globalID, Cycle: ls.cycle})
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
		w.Exit(exec)
		ls.progress()
		w.Goto(int32(pc) + 1)
		w.syncTop()
		return
	case isa.BRA:
		advance = false
		ls.Branch(&w.SIMT, pc, in.Target, active, exec)
	default:
		ls.Fail(fmt.Errorf("sim: %s: unhandled opcode %s at pc %d", ls.Prog.Name, in.Op, pc))
		return
	}
	if advance {
		w.Goto(int32(pc) + 1)
	}
}

// finishInt completes an integer ALU instruction (every OCU-eligible
// opcode) whose 32 lanes are computed in res: it narrows them to 32
// bits, sign-extended, unless the W64 flag is set; runs the OCU site
// (Exec.PointerOp) when the Activation hint is set; and writes back with
// the integer latency plus the extra latency the check reported.
func (ls *launch) finishInt(w *warp, in *isa.Instr, exec uint32, res *[32]uint64) {
	extra := uint64(0)
	if in.Hint.A {
		extra = ls.PointerOp(ls.row(w, in.Src[in.Hint.PointerOperand()]), res, exec, !in.W64())
	} else if !in.W64() {
		narrow32(res)
	}
	ls.writeback(w, in, exec, res, ls.Dev.Cfg.IntLatency+extra)
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
