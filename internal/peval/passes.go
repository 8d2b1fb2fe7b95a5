package peval

import (
	"fmt"
	"math"

	"lmi/internal/bounds"
	"lmi/internal/isa"
)

// passes.go — the round structure of the specializer. Each round runs
// the constant analysis once and then, in order: emits the in-place
// folds and branch prunings its final walk justifies, emits one drop
// batch (never-taken branches, unreachable code, dead pure writers,
// erased SSYs), and — only on a round that found nothing else —
// unrolls one constant-trip loop. Rounds repeat to fixpoint under Options.MaxRounds.
// Every emitted transform is appended to the certificate log and
// applied through the same ApplyTransform the audit replays.

// unpredicated reports a hardwired-true guard.
func unpredicated(in *isa.Instr) bool { return in.Pred == isa.PT && !in.PredNeg }

// foldableImm reports whether v can ride in the 32-bit immediate slot
// under the sign-extended register convention.
func foldableImm(v uint64) bool { return v == isa.Sx32(int32(v)) }

// foldAt returns the in-place transform the analysis justifies at the
// reached instruction i, whose in-state is st: a constant fold to
// MOV-immediate, a register operand rewritten to immediate form, or an
// always-taken branch pruning. At most one transform per PC per round.
func foldAt(p *isa.Program, i int, st *consts, c bounds.Contract, d dims) (Transform, bool) {
	in := &p.Instrs[i]
	if in.Hint.A || in.Hint.E {
		return Transform{}, false // hinted instructions are immutable
	}
	switch {
	case in.Op == isa.LDC && unpredicated(in) && isCountLoad(p, in, c):
		if n, ok := countExact(c, p.NumParams); ok && foldableImm(uint64(n)) {
			return Transform{Kind: TFoldCount, PC: i, Imm: n}, true
		}
	case in.Op == isa.S2R && unpredicated(in):
		if v, ok := sregDim(isa.SReg(in.Aux), d); ok && v >= 0 && v <= math.MaxInt32 {
			return Transform{Kind: TFoldSReg, PC: i, Imm: v}, true
		}
	case in.Op == isa.BRA && !unpredicated(in):
		if known, val := st.guard(in); known {
			// Never-taken branches are dropped, not rewritten.
			return Transform{Kind: TPruneTaken, PC: i}, val
		}
	case in.Op.IsInt() && in.Op != isa.SETP && unpredicated(in) &&
		in.WritesDst() && in.Dst != isa.RZ && !(in.Op == isa.MOV && in.HasImm):
		if v, ok := evalALU(in, st); ok && foldableImm(v) {
			return Transform{Kind: TFoldConst, PC: i, Imm: int64(int32(v))}, true
		}
	}
	// Operand-to-immediate rewriting, for instructions the cases above
	// left untouched.
	if idx := in.Op.ImmSrcIndex(); idx >= 0 && !in.HasImm && in.Src[idx] != isa.RZ {
		if v, ok := st.reg(in.Src[idx]); ok && foldableImm(v) {
			return Transform{Kind: TFoldImm, PC: i, Imm: int64(int32(v))}, true
		}
	}
	return Transform{}, false
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
// program w, reusing the round's final walk for reachability and
// never-taken branches (folds only refine them). Dead-writer
// elimination iterates: a chain of pure writers feeding only each
// other falls together.
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
		switch {
		case !a.reached[i]:
			mark(i, DropUnreachable)
		case a.never[i]:
			mark(i, DropBranchFalse)
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
// uses, in the scratch state st, and returns the induction register's
// value at the back edge. Every other register starts unknown —
// loop-invariant constants the update chain needs must be materialized
// by the body itself (immediates, MOVs), which the fold rounds have
// already arranged.
func bodyAdvance(p *isa.Program, bs, be int, ind isa.Reg, v uint64, st *consts) (uint64, bool) {
	clear(st.regs)
	st.pk, st.pv = [8]bool{}, [8]bool{}
	st.setReg(ind, v)
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

// findLoops appends to loops every counted loop of the canonical
// lowering shape, in back-edge order: the structural half of the
// unroll search, which needs no analysis.
func findLoops(p *isa.Program, loops []loop) []loop {
	n := len(p.Instrs)
	for be := 0; be < n; be++ {
		back := &p.Instrs[be]
		if back.Op != isa.BRA || !unpredicated(back) || int(back.Target) >= be {
			continue
		}
		h := int(back.Target)
		bs, exit := h+4, be+1
		if h < 1 || bs > be || exit >= n {
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
		loops = append(loops, loop{head: h, bodyStart: bs, bodyEnd: be, exit: exit})
	}
	return loops
}

// findUnroll picks one constant-trip counted loop and computes its trip
// count by concrete iteration, from the loop-entry state the final walk
// met over the loop's reached entries from outside. The lowest-headed
// qualifying loop wins (inner loops qualify before outer ones: an outer
// body still contains the inner loop's branches and is rejected as
// non-straight-line).
func findUnroll(p *isa.Program, a *analysis, opt Options) *UnrollInfo {
	for _, l := range a.loops {
		h, bs, be := l.head, l.bodyStart, l.bodyEnd
		if !a.reached[h] || !l.found {
			continue
		}
		head := &p.Instrs[h]
		ind := head.Src[0]
		init, ok := l.entry.reg(ind)
		if !ok || ind == isa.RZ {
			continue
		}
		vals, known := sources(head, l.entry)
		if !known[1] {
			continue
		}
		lim := vals[1]
		trip := int64(0)
		v := init
		feasible := true
		for setpHolds(head, v, lim) {
			trip++
			if trip > int64(opt.MaxUnrollTrip) {
				feasible = false
				break
			}
			if v, ok = bodyAdvance(p, bs, be, ind, v, a.fx.ScratchState(scratchTrip)); !ok {
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
		return &UnrollInfo{Head: h, BodyStart: bs, BodyEnd: be, Exit: l.exit, Trip: trip, IndReg: ind}
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
	a := &analysis{}
	for round := 0; round < opt.MaxRounds; round++ {
		a.analyze(p, c)
		progress := false
		for _, t := range a.folds {
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
