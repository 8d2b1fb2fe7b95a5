package compiler

import "lmi/internal/isa"

// Optimize runs peephole cleanups over a compiled program:
//
//  1. immediate folding — an operand whose only definition in the program
//     is a single unconditional `MOV r, #imm` is replaced by the
//     immediate form of the consuming instruction;
//  2. self-copy elimination — `MOV r, r` without an Activation hint is a
//     no-op (hinted self-moves are OCU-verified pointer moves and are
//     kept);
//  3. dead-move elimination — an unhinted, unconditional MOV whose
//     destination is never read is dropped.
//
// The evaluation (Figs. 12/13) deliberately runs the *unoptimized*
// generator output so that every mechanism sees identical code; Optimize
// exists for the codegen-quality ablation (BenchmarkAblationOptimizedCodegen),
// which shows LMI's relative overhead is insensitive to code quality.
// Folding relies on definitions textually preceding uses, which the
// structured IR builder guarantees; the differential fuzz tests cross-
// check optimized programs against the interpreter.
func Optimize(p *isa.Program) *isa.Program {
	q := foldImmediates(p)
	return removeDeadMoves(q)
}

// foldable returns the source-operand index the immediate form of op
// replaces (isa's ImmSrcIndex), and false for opcodes without one and
// for MOV, whose immediate form is the definition being folded.
func foldable(op isa.Opcode) (int, bool) {
	i := op.ImmSrcIndex()
	return i, i >= 0 && op != isa.MOV
}

// foldImmediates rewrites operands into immediate forms when the
// reaching definition is a MOV-immediate. Reaching definitions are
// tracked linearly and invalidated at every CFG target (any point
// control can enter sideways), which makes the analysis conservative but
// sound for arbitrary layouts.
func foldImmediates(p *isa.Program) *isa.Program {
	g := isa.NewCFG(p)
	out := make([]isa.Instr, len(p.Instrs))
	copy(out, p.Instrs)
	type def struct {
		imm int32
		ok  bool
	}
	reach := map[isa.Reg]def{}
	for i := range out {
		if g.Target(i) {
			// Control may arrive here from elsewhere: forget everything.
			reach = map[isa.Reg]def{}
		}
		in := &out[i]
		// Fold this instruction's immediate-capable operand first (using
		// definitions reaching from above).
		if srcIdx, ok := foldable(in.Op); ok && !in.HasImm &&
			!(in.Hint.A && in.Hint.PointerOperand() == srcIdx) {
			if r := in.Src[srcIdx]; r != isa.RZ {
				if d, ok := reach[r]; ok && d.ok {
					in.HasImm = true
					in.Imm = d.imm
					in.Src[srcIdx] = isa.RZ
				}
			}
		}
		// Then record this instruction's definition.
		if in.Dst != isa.RZ && in.WritesDst() {
			if in.Op == isa.MOV && in.HasImm && in.Pred == isa.PT && !in.PredNeg && !in.Hint.A {
				reach[in.Dst] = def{imm: in.Imm, ok: true}
			} else {
				delete(reach, in.Dst)
			}
		}
		// A branch does not invalidate the fall-through path's
		// definitions (the taken path re-enters at a target, which is
		// already invalidated above).
	}
	q := *p
	q.Instrs = out
	return &q
}

// removeDeadMoves drops self-copies and never-read unhinted MOVs,
// remapping branch targets.
func removeDeadMoves(p *isa.Program) *isa.Program {
	read := map[isa.Reg]bool{}
	for i := range p.Instrs {
		for _, r := range p.Instrs[i].Src {
			if r != isa.RZ {
				read[r] = true
			}
		}
	}
	keep := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		keep[i] = true
		if in.Op != isa.MOV || in.Hint.A || in.Pred != isa.PT || in.PredNeg {
			continue
		}
		if !in.HasImm && in.Dst == in.Src[0] {
			keep[i] = false // self-copy
			continue
		}
		if in.Dst != isa.RZ && !read[in.Dst] {
			keep[i] = false // never read
		}
	}
	q := *p
	q.Instrs = isa.Rewrite(p.Instrs, func(out []isa.Instr, i int) []isa.Instr {
		if keep[i] {
			out = append(out, p.Instrs[i])
		}
		return out
	})
	return &q
}
