package peval

import (
	"fmt"
	"math"

	"lmi/internal/bounds"
	"lmi/internal/isa"
)

// passes.go — the round structure of the specializer. Each round runs
// the constant analysis once and then, in order: emits the in-place
// folds and branch prunings it justifies, emits one drop batch
// (never-taken branches, unreachable code, dead pure writers, erased
// SSYs), and — only on a round that found nothing else — unrolls one
// constant-trip loop. Rounds repeat to fixpoint under Options.MaxRounds.
// Every emitted transform is appended to the certificate log and
// applied through the same ApplyTransform the audit replays.

// unpredicated reports a hardwired-true guard.
func unpredicated(in *isa.Instr) bool { return in.Pred == isa.PT && !in.PredNeg }

// foldableImm reports whether v can ride in the 32-bit immediate slot
// under the sign-extended register convention.
func foldableImm(v uint64) bool { return v == sx32(int32(v)) }

// collectFolds gathers this round's in-place transforms from the
// analysis: constant folds to MOV-immediate, register operands
// rewritten to immediate form, and always-taken branch prunings. At
// most one transform per PC per round.
func collectFolds(p *isa.Program, a *analysis) []Transform {
	var ts []Transform
	for i := range p.Instrs {
		if !a.reached[i] {
			continue
		}
		in := &p.Instrs[i]
		if in.Hint.A || in.Hint.E {
			continue // hinted instructions are immutable
		}
		st := a.in[i]
		switch {
		case in.Op == isa.LDC && unpredicated(in) && isCountLoad(p, in, a.c):
			if n, ok := countExact(a.c, p.NumParams); ok && foldableImm(uint64(n)) {
				ts = append(ts, Transform{Kind: TFoldCount, PC: i, Imm: n})
				continue
			}
		case in.Op == isa.S2R && unpredicated(in):
			if v, ok := sregDim(isa.SReg(in.Aux), a.d); ok && v >= 0 && v <= math.MaxInt32 {
				ts = append(ts, Transform{Kind: TFoldSReg, PC: i, Imm: v})
				continue
			}
		case in.Op == isa.BRA && !unpredicated(in):
			if known, val := st.guard(in); known {
				if val {
					ts = append(ts, Transform{Kind: TPruneTaken, PC: i})
				}
				// Never-taken branches are dropped, not rewritten.
				continue
			}
		case in.Op.IsInt() && in.Op != isa.SETP && unpredicated(in) &&
			in.WritesDst() && in.Dst != isa.RZ && !(in.Op == isa.MOV && in.HasImm):
			if v, ok := evalALU(in, st); ok && foldableImm(v) {
				ts = append(ts, Transform{Kind: TFoldConst, PC: i, Imm: int64(int32(v))})
				continue
			}
		}
		// Operand-to-immediate rewriting, for instructions the cases
		// above left untouched this round. F2I/I2F are excluded: the
		// execution units read their register operand even in the
		// immediate form.
		if in.Op == isa.F2I || in.Op == isa.I2F {
			continue
		}
		if idx := in.Op.ImmSrcIndex(); idx >= 0 && !in.HasImm && in.Src[idx] != isa.RZ {
			if v, ok := st.reg(in.Src[idx]); ok && foldableImm(v) {
				ts = append(ts, Transform{Kind: TFoldImm, PC: i, Imm: int64(int32(v))})
			}
		}
	}
	return ts
}

// pureDroppable reports whether the opcode has no effect beyond its
// register write: safe to remove when the write is dead. Real memory
// accesses stay — they can fault and they carry the extent-check
// counters the differential gate pins; LDC reads the constant bank,
// which does neither.
func pureDroppable(op isa.Opcode) bool {
	switch op {
	case isa.MOV, isa.IADD, isa.IADD3, isa.IMUL, isa.IMAD, isa.IMNMX,
		isa.SHL, isa.SHR, isa.AND, isa.OR, isa.XOR, isa.SEL,
		isa.S2R, isa.LDC, isa.FADD, isa.FMUL, isa.FFMA, isa.MUFU,
		isa.F2I, isa.I2F:
		return true
	}
	return false
}

// collectDrops builds this round's drop batch against the (post-fold)
// program w, reusing the round's analysis for reachability and branch
// facts (folds only refine them). Dead-writer elimination iterates: a
// chain of pure writers feeding only each other falls together.
func collectDrops(w *isa.Program, a *analysis) []Drop {
	n := len(w.Instrs)
	dropped := make([]bool, n)
	reason := make([]string, n)
	mark := func(i int, r string) {
		if !dropped[i] {
			dropped[i] = true
			reason[i] = r
		}
	}
	for i := range w.Instrs {
		if !a.reached[i] {
			mark(i, DropUnreachable)
			continue
		}
		in := &w.Instrs[i]
		if in.Op == isa.BRA && !unpredicated(in) {
			if known, val := a.in[i].guard(in); known && !val {
				mark(i, DropBranchFalse)
			}
		}
	}
	// Dead pure writers and dead predicate writers, to fixpoint over
	// the retained set.
	for {
		regReads := map[isa.Reg]int{}
		predReads := map[isa.PredReg]int{}
		var buf [3]isa.Reg
		for i := range w.Instrs {
			if dropped[i] {
				continue
			}
			in := &w.Instrs[i]
			for _, r := range in.SrcRegs(buf[:0]) {
				if r != isa.RZ {
					regReads[r]++
				}
			}
			if in.Pred != isa.PT || in.PredNeg {
				predReads[in.Pred&7]++
			}
			if in.Op == isa.SEL {
				predReads[isa.PredReg(in.Aux&7)]++
			}
		}
		changed := false
		for i := range w.Instrs {
			if dropped[i] {
				continue
			}
			in := &w.Instrs[i]
			if in.Hint.A || in.Hint.E || !unpredicated(in) {
				continue
			}
			switch {
			case pureDroppable(in.Op) && in.WritesDst() && in.Dst != isa.RZ && regReads[in.Dst] == 0:
				mark(i, DropDead)
				changed = true
			case (in.Op == isa.SETP || in.Op == isa.FSETP) && predReads[isa.PredReg(in.Dst&7)] == 0:
				mark(i, DropDeadPred)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// SSYs whose pushed reconvergence point the next retained
	// instruction — an unconditional, hence uniform, branch —
	// immediately erases.
	for i := range w.Instrs {
		if dropped[i] || w.Instrs[i].Op != isa.SSY {
			continue
		}
		for j := i + 1; j < n; j++ {
			if dropped[j] {
				continue
			}
			if in := &w.Instrs[j]; in.Op == isa.BRA && unpredicated(in) {
				mark(i, DropSSYUniform)
			}
			break
		}
	}
	var drops []Drop
	for i := range w.Instrs {
		if dropped[i] {
			drops = append(drops, Drop{PC: i, Reason: reason[i]})
		}
	}
	return drops
}

// bodyAdvance concretely executes one loop-body pass for the trip
// computation: starting from the induction register's value, it walks
// the straight-line body with the same ALU semantics the analysis
// uses, and returns the induction register's value at the back edge.
// Every other register starts unknown — loop-invariant constants the
// update chain needs must be materialized by the body itself
// (immediates, MOVs), which the fold rounds have already arranged.
func bodyAdvance(p *isa.Program, bs, be int, ind isa.Reg, v uint64) (uint64, bool) {
	st := consts{regs: map[isa.Reg]uint64{ind: v}, preds: map[isa.PredReg]bool{}}
	for i := bs; i < be; i++ {
		in := &p.Instrs[i]
		if !in.WritesDst() || in.Dst == isa.RZ {
			continue
		}
		if in.Hint.A || !in.Op.IsInt() {
			st.clearReg(in.Dst)
			continue
		}
		if out, ok := evalALU(in, st); ok {
			st.setReg(in.Dst, out)
		} else {
			st.clearReg(in.Dst)
		}
	}
	return st.reg(ind)
}

// loopEntryState merges the analysis states flowing into the loop head
// from outside the loop (every predecessor except the back edge).
func loopEntryState(a *analysis, head, backEdge int) (consts, bool) {
	var entry consts
	found := false
	for _, i := range a.g.Preds(head) {
		if !a.reached[i] || i == backEdge || !a.liveTo(i, head) {
			continue
		}
		out := a.outState(i)
		if !found {
			entry, found = out.clone(), true
		} else {
			entry.meet(out)
		}
	}
	return entry, found
}

// findUnroll searches for one constant-trip counted loop matching the
// canonical lowering shape and computes its trip count by concrete
// iteration. The lowest-headed qualifying loop wins (inner loops
// qualify before outer ones: an outer body still contains the inner
// loop's branches and is rejected as non-straight-line).
func findUnroll(p *isa.Program, a *analysis, opt Options) *UnrollInfo {
	n := len(p.Instrs)
	for be := 0; be < n; be++ {
		back := &p.Instrs[be]
		if back.Op != isa.BRA || !unpredicated(back) || int(back.Target) >= be {
			continue
		}
		h := int(back.Target)
		bs, exit := h+4, be+1
		if h < 1 || bs > be || exit >= n || !a.reached[h] {
			continue
		}
		head := &p.Instrs[h]
		guard := &p.Instrs[h+2]
		if head.Op != isa.SETP || !unpredicated(head) ||
			p.Instrs[h+1].Op != isa.SSY || !unpredicated(&p.Instrs[h+1]) || int(p.Instrs[h+1].Target) != exit ||
			guard.Op != isa.BRA || guard.Pred != isa.PredReg(head.Dst&7) || guard.PredNeg || int(guard.Target) != bs ||
			p.Instrs[h+3].Op != isa.BRA || !unpredicated(&p.Instrs[h+3]) || int(p.Instrs[h+3].Target) != exit {
			continue
		}
		if !loopBodyOK(p, h, bs, be, head) {
			continue
		}
		entry, found := loopEntryState(a, h, be)
		if !found {
			continue
		}
		ind := head.Src[0]
		init, ok := entry.reg(ind)
		if !ok || ind == isa.RZ {
			continue
		}
		var lim uint64
		if head.HasImm {
			lim = sx32(head.Imm)
		} else if lim, ok = entry.reg(head.Src[1]); !ok {
			continue
		}
		cmp := isa.CmpOp(head.Aux)
		trip := int64(0)
		v := init
		feasible := true
		for cmpSigned(cmp, int64(v), int64(lim)) {
			trip++
			if trip > int64(opt.MaxUnrollTrip) {
				feasible = false
				break
			}
			if v, ok = bodyAdvance(p, bs, be, ind, v); !ok {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		if int(trip)*(be-bs)+1 > opt.MaxUnrollInstrs {
			continue
		}
		return &UnrollInfo{Head: h, BodyStart: bs, BodyEnd: be, Exit: exit, Trip: trip, IndReg: ind}
	}
	return nil
}

// loopBodyOK enforces the unroll side conditions beyond the head
// shape: a straight-line unpredicated body that does not read the
// guard predicate before redefining it, does not redefine the limit
// operand, and is entered from outside only at the head.
func loopBodyOK(p *isa.Program, h, bs, be int, head *isa.Instr) bool {
	pd := isa.PredReg(head.Dst & 7)
	wroteP := false
	for i := bs; i < be; i++ {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.BRA, isa.SSY, isa.EXIT, isa.BAR:
			return false
		}
		if !unpredicated(in) {
			return false
		}
		if in.Op == isa.SEL && isa.PredReg(in.Aux&7) == pd && !wroteP {
			return false
		}
		if (in.Op == isa.SETP || in.Op == isa.FSETP) && isa.PredReg(in.Dst&7) == pd {
			wroteP = true
		}
		if !head.HasImm && in.WritesDst() && in.Dst == head.Src[1] && in.Dst != isa.RZ {
			return false
		}
	}
	for i := range p.Instrs {
		if i >= h && i <= be {
			continue
		}
		in := &p.Instrs[i]
		if (in.Op == isa.BRA || in.Op == isa.SSY) && int(in.Target) > h && int(in.Target) <= be {
			return false
		}
	}
	return true
}

// runRounds drives the specializer to fixpoint, appending every
// emitted transform to the certificate and applying it via
// ApplyTransform.
func runRounds(p *isa.Program, prov []int, c bounds.Contract, opt Options, cert *Certificate) (*isa.Program, []int, error) {
	apply := func(t Transform) error {
		q, pr, err := ApplyTransform(p, prov, t)
		if err != nil {
			return err
		}
		p, prov = q, pr
		cert.Transforms = append(cert.Transforms, t)
		return nil
	}
	for round := 0; round < opt.MaxRounds; round++ {
		a := sccpAnalyze(p, c)
		progress := false
		for _, t := range collectFolds(p, a) {
			if err := apply(t); err != nil {
				return nil, nil, fmt.Errorf("round %d: %w", round, err)
			}
			progress = true
		}
		if drops := collectDrops(p, a); len(drops) > 0 {
			if err := apply(Transform{Kind: TDrop, Drops: drops}); err != nil {
				return nil, nil, fmt.Errorf("round %d: %w", round, err)
			}
			progress = true
		}
		if progress {
			continue
		}
		if u := findUnroll(p, a, opt); u != nil {
			if err := apply(Transform{Kind: TUnroll, Unroll: u}); err != nil {
				return nil, nil, fmt.Errorf("round %d: %w", round, err)
			}
			continue
		}
		break
	}
	return p, prov, nil
}
