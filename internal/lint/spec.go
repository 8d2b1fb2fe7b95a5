package lint

// The specialize audit is the static half of the residual-program
// soundness argument, in the pattern of the elide audit: internal/peval
// emits a residual program plus a certificate (contract shape, ordered
// transformation log, provenance), and this file re-derives the
// soundness of every logged transform from nothing but the shipped
// programs, the certificate, and the contract. The two sides share
// only the mechanical replay (peval.ApplyTransform, so "what the log
// produces" has a single definition) — every semantic judgment here
// runs on the linter's own conditional constant analysis of the
// replayed program as it stands before each transform is judged. A
// bug (or a chaos-tampered residual: a mutated instruction, a forged
// log entry) on either side surfaces as a KindUnsoundSpec diagnostic
// pinned to the exact instruction.

import (
	"fmt"
	"math"
	"slices"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/peval"
)

// ---- the linter's own conditional constant analysis ----

// scVal is one known-constant register fact.
type scVal struct {
	known bool
	v     uint64
}

// scState is the constant lattice at one program point: per-register
// known values and per-predicate known truth values. regs holds one
// slot per register below the program's isa.CFG.RegWidth; RZ has no
// slot and reads as the constant 0. The
// zero scVal is unknown, so a cleared slice is the all-unknown state.
type scState struct {
	regs []scVal
	pk   [8]bool
	pv   [8]bool
}

// copyFrom overwrites s with src; both span the same width.
func (s *scState) copyFrom(src *scState) {
	copy(s.regs, src.regs)
	s.pk, s.pv = src.pk, src.pv
}

func scUnpred(in *isa.Instr) bool { return in.Pred == isa.PT && !in.PredNeg }

func scEntryState(st *scState) {
	// The warp scheduler initializes every predicate false and PT true;
	// the register file holds garbage (unknown).
	clear(st.regs)
	for i := range st.pk {
		st.pk[i] = true
		st.pv[i] = false
	}
	st.pv[7] = true
}

func (s *scState) reg(r isa.Reg) (uint64, bool) {
	if r == isa.RZ {
		return 0, true
	}
	return s.regs[r].v, s.regs[r].known
}

func (s *scState) setReg(r isa.Reg, v uint64) {
	if r != isa.RZ {
		s.regs[r] = scVal{known: true, v: v}
	}
}

func (s *scState) clearReg(r isa.Reg) {
	if r != isa.RZ {
		s.regs[r] = scVal{}
	}
}

// guard resolves an instruction's predicate guard against the state.
func (s *scState) guard(in *isa.Instr) (known, val bool) {
	if scUnpred(in) {
		return true, true
	}
	p := in.Pred & 7
	if !s.pk[p] {
		return false, false
	}
	v := s.pv[p]
	if in.PredNeg {
		v = !v
	}
	return true, v
}

// meet intersects src into s (drop any fact the two sides disagree
// on), reporting whether s changed.
func (s *scState) meet(src *scState) bool {
	changed := false
	for r := range s.regs {
		if s.regs[r].known && (!src.regs[r].known || src.regs[r].v != s.regs[r].v) {
			s.regs[r] = scVal{}
			changed = true
		}
	}
	for p := range s.pk {
		if s.pk[p] && (!src.pk[p] || src.pv[p] != s.pv[p]) {
			s.pk[p] = false
			s.pv[p] = false
			changed = true
		}
	}
	return changed
}

// scDims is the contract's normalized launch geometry.
type scDims struct {
	ok                 bool
	bdx, bdy, gdx, gdy int64
}

func scDimsOf(c bounds.Contract) scDims {
	d := scDims{bdx: c.BlockDimX, bdy: c.BlockDimY, gdx: c.GridDimX, gdy: c.GridDimY}
	if d.bdy == 0 {
		d.bdy = 1
	}
	if d.gdy == 0 {
		d.gdy = 1
	}
	d.ok = d.bdx >= 1 && d.bdx <= 1024 && d.gdx >= 1 && d.bdy >= 1 && d.gdy >= 1
	return d
}

// scSregDim pins a launch-geometry special register (the lane-varying
// ones never pin: every derived constant stays lane-invariant, which
// is what makes guard facts uniform across a warp).
func scSregDim(sr isa.SReg, d scDims) (int64, bool) {
	if !d.ok {
		return 0, false
	}
	switch sr {
	case isa.SRNtidX:
		return d.bdx, true
	case isa.SRNtidY:
		return d.bdy, true
	case isa.SRNctaidX:
		return d.gdx, true
	case isa.SRNctaidY:
		return d.gdy, true
	}
	return 0, false
}

// scCountExact returns the contract-pinned element count when the
// range is a single MOV-representable value.
func scCountExact(c bounds.Contract, numParams int) (int64, bool) {
	if c.CountParam < 0 || c.CountParam >= numParams {
		return 0, false
	}
	if c.CountMin < 1 || c.CountMin != c.CountMax || c.CountMax > math.MaxInt32 {
		return 0, false
	}
	return c.CountMax, true
}

// scIsCountLoad matches the canonical constant-bank load of the count
// parameter.
func scIsCountLoad(p *isa.Program, in *isa.Instr, c bounds.Contract) bool {
	if in.Op != isa.LDC || in.Src[0] != isa.RZ || in.AccSize() != 8 {
		return false
	}
	if c.CountParam < 0 || c.CountParam >= p.NumParams {
		return false
	}
	return int(in.Imm) == p.ParamBase+8*c.CountParam
}

func scCmpSigned(op isa.CmpOp, a, b int64) bool {
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

// scEvalALU evaluates an integer ALU instruction to a constant when
// every consumed source is known, mirroring the execution unit's
// source routing (immediate slot), per-op arithmetic, and 32-bit
// narrowing sign-extension. Pointer-hinted instructions never
// evaluate: their result passes through the mechanism's pointer check.
func scEvalALU(in *isa.Instr, s *scState) (uint64, bool) {
	if in.Hint.A {
		return 0, false
	}
	src := func(i int) (uint64, bool) {
		if in.HasImm && i == in.Op.ImmSrcIndex() {
			return isa.Sx32(in.Imm), true
		}
		return s.reg(in.Src[i])
	}
	a, aok := src(0)
	b, bok := src(1)
	w64 := in.W64()
	var out uint64
	ok := false
	switch in.Op {
	case isa.MOV:
		out, ok = a, aok
	case isa.IADD:
		out, ok = a+b, aok && bok
	case isa.IADD3:
		c3, cok := src(2)
		out, ok = a+b+c3, aok && bok && cok
	case isa.IMUL:
		out, ok = uint64(int64(a)*int64(b)), aok && bok
	case isa.IMAD:
		c3, cok := src(2)
		out, ok = uint64(int64(a)*int64(b)+int64(c3)), aok && bok && cok
	case isa.IMNMX:
		if aok && bok {
			ai, bi := int64(a), int64(b)
			if in.IsMax() == (ai > bi) {
				out = uint64(ai)
			} else {
				out = uint64(bi)
			}
			ok = true
		}
	case isa.SHL:
		if aok && bok {
			if w64 {
				out = a << (b & 63)
			} else {
				out = uint64(uint32(a) << (b & 31))
			}
			ok = true
		}
	case isa.SHR:
		if aok && bok {
			if w64 {
				out = a >> (b & 63)
			} else {
				out = uint64(uint32(a) >> (b & 31))
			}
			ok = true
		}
	case isa.AND:
		out, ok = a&b, aok && bok
	case isa.OR:
		out, ok = a|b, aok && bok
	case isa.XOR:
		out, ok = a^b, aok && bok
	case isa.SEL:
		pd := in.Aux & 7
		switch {
		case s.pk[pd] && s.pv[pd]:
			out, ok = a, aok
		case s.pk[pd]:
			out, ok = b, bok
		case aok && bok && a == b:
			out, ok = a, true
		}
	default:
		return 0, false
	}
	if !ok {
		return 0, false
	}
	if !w64 {
		out = isa.Sx32(int32(out))
	}
	return out, true
}

// scEvalSETP evaluates a SETP to a known truth value (full-width
// signed compare; an unrecognized comparator is constant false,
// exactly as the machine treats it).
func scEvalSETP(in *isa.Instr, s *scState) (bool, bool) {
	a, aok := s.reg(in.Src[0])
	var b uint64
	var bok bool
	if in.HasImm {
		b, bok = isa.Sx32(in.Imm), true
	} else {
		b, bok = s.reg(in.Src[1])
	}
	if !aok || !bok {
		return false, false
	}
	return scCmpSigned(isa.CmpOp(in.Aux), int64(a), int64(b)), true
}

// scTransfer advances st past instruction i in place; every fact it
// writes is computed from st before the write. A provably guarded-off
// instruction has no effect; an instruction whose guard is unknown may
// or may not write, so its destination survives only when the written
// value equals the incumbent (weak update).
func scTransfer(p *isa.Program, c bounds.Contract, d scDims, i int, st *scState) {
	out := st
	in := &p.Instrs[i]
	gknown, gval := st.guard(in)
	if gknown && !gval {
		return
	}
	weak := !gknown

	clearDst := func() {
		if in.WritesDst() {
			out.clearReg(in.Dst)
		}
	}
	setDst := func(v uint64, ok bool) {
		if !in.WritesDst() {
			return
		}
		if !ok {
			out.clearReg(in.Dst)
			return
		}
		if weak {
			if old, known := st.reg(in.Dst); !known || old != v {
				out.clearReg(in.Dst)
				return
			}
		}
		out.setReg(in.Dst, v)
	}
	setPred := func(v bool, ok bool) {
		pd := in.Dst & 7
		if !ok {
			out.pk[pd], out.pv[pd] = false, false
			return
		}
		if weak && (!st.pk[pd] || st.pv[pd] != v) {
			out.pk[pd], out.pv[pd] = false, false
			return
		}
		out.pk[pd], out.pv[pd] = true, v
	}

	switch in.Op {
	case isa.NOP, isa.SYNC, isa.SSY, isa.BAR, isa.BRA, isa.EXIT, isa.TRAP,
		isa.STG, isa.STS, isa.STL, isa.FREE:
		// No register or predicate effect.
	case isa.SETP:
		v, ok := scEvalSETP(in, st)
		setPred(v, ok)
	case isa.FSETP:
		setPred(false, false)
	case isa.S2R:
		if v, ok := scSregDim(isa.SReg(in.Aux), d); ok {
			setDst(uint64(v), true)
		} else {
			clearDst()
		}
	case isa.LDC:
		if n, ok := scCountExact(c, p.NumParams); ok && scIsCountLoad(p, in, c) {
			setDst(uint64(n), true)
		} else {
			clearDst()
		}
	case isa.LDG, isa.LDS, isa.LDL, isa.ATOMG, isa.ATOMS, isa.MALLOC:
		clearDst()
	case isa.FADD, isa.FMUL, isa.FFMA, isa.MUFU, isa.F2I, isa.I2F:
		clearDst()
	default:
		if in.Op.IsInt() {
			v, ok := scEvalALU(in, st)
			setDst(v, ok)
		} else {
			clearDst()
		}
	}
}

// scAnalysis is the constant analysis on the fixpoint driver, with
// in-states kept at the pcs the judges read. SpecializeAudit keeps one
// analysis across the in-place rewrites (keepsFixpoint) and re-runs it,
// on the same storage, after every other transform. p is the replay's
// working program itself, never a copy of it.
type scAnalysis struct {
	p    *isa.Program
	c    bounds.Contract
	d    scDims
	g    *isa.CFG
	keep []bool // per pc: a judge of the log reads its in-state
	seen []bool // per pc: a walk stepped it, so it is reached
	// The judges read a reached pc's in-state with fx.Kept, and report
	// a pc with none as unsound rather than guess.
	fx isa.Fixpoint[scState, scVal]
}

// The scratch states: a loop-entry predecessor's post-state, the
// unroll judgment's loop-entry meet and its per-trip body state.
const (
	scOut = iota
	scEntry
	scTrip
	scScratch
)

// live reports whether edge e out of instruction i is executable under
// i's entry state: a guard proven true kills the fall-through of a BRA
// or a predicated EXIT, a guard proven false kills a BRA's taken edge.
func (a *scAnalysis) live(i int, e isa.Edge, st *scState) bool {
	in := &a.p.Instrs[i]
	if in.Op != isa.BRA && in.Op != isa.EXIT {
		return true
	}
	gknown, gval := st.guard(in)
	return !gknown || gval == e.Taken
}

// liveTo reports whether a live edge leads from i, in state st, to h.
func (a *scAnalysis) liveTo(i, h int, st *scState) bool {
	for _, e := range a.g.Succs(i) {
		if e.To == h && a.live(i, e, st) {
			return true
		}
	}
	return false
}

// keptPCs marks in a.keep every pc a judge reads while this analysis
// serves the log: from its first transform up to and including the
// first that keepsFixpoint does not keep. An in-place or unknown kind
// reads its PC, a drop each dropped PC, an unroll the predecessors of
// its head. Out-of-range pcs are left out; the judges reject them
// before reading.
func (a *scAnalysis) keptPCs(log []peval.Transform) {
	keep := func(pc int) {
		if pc >= 0 && pc < len(a.keep) {
			a.keep[pc] = true
		}
	}
	for _, t := range log {
		switch t.Kind {
		case peval.TDrop:
			for _, d := range t.Drops {
				keep(d.PC)
			}
		case peval.TUnroll:
			if t.Unroll != nil && t.Unroll.Head >= 0 && t.Unroll.Head < len(a.keep) {
				for _, i := range a.g.Preds(t.Unroll.Head) {
					keep(i)
				}
			}
		default:
			keep(t.PC)
		}
		if !keepsFixpoint(t, true) {
			return
		}
	}
}

// analyze runs the conditional constant propagation over p to
// fixpoint, from scratch, keeping in-states at the pcs the judges of
// log read (keptPCs): nothing of a previous analysis survives but its
// storage.
func (a *scAnalysis) analyze(p *isa.Program, c bounds.Contract, log []peval.Transform) {
	n := len(p.Instrs)
	a.p, a.c, a.d, a.g = p, c, scDimsOf(c), isa.NewCFG(p)
	a.keep = slices.Grow(a.keep[:0], n)[:n]
	clear(a.keep)
	a.seen = slices.Grow(a.seen[:0], n)[:n]
	clear(a.seen)
	a.keptPCs(log)
	a.fx.Pass, a.fx.Equal, a.fx.Scratch = a, scEqual, scScratch
	a.fx.Keep = func(pc int) bool { return a.keep[pc] }
	a.fx.Init(a.g)
	a.fx.Run(scEntryState, math.MaxInt)
}

// scEqual reports whether two states hold the same facts.
func scEqual(x, y *scState) bool {
	return x.pk == y.pk && x.pv == y.pv && slices.Equal(x.regs, y.regs)
}

// Bind, Copy, Step, Edge and Join make the analysis an isa.Pass.
func (a *scAnalysis) Bind(st *scState, regs []scVal) { st.regs = regs }
func (a *scAnalysis) Copy(dst, src *scState)         { dst.copyFrom(src) }
func (a *scAnalysis) Step(pc int, st *scState) {
	a.seen[pc] = true
	scTransfer(a.p, a.c, a.d, pc, st)
}
func (a *scAnalysis) Edge(pc int, e isa.Edge, st *scState) *scState {
	if !a.live(pc, e, st) {
		return nil
	}
	return st
}
func (a *scAnalysis) Join(from, to int, dst, src *scState, fresh bool) bool {
	if fresh {
		dst.copyFrom(src)
		return true
	}
	return dst.meet(src)
}

// keepsFixpoint reports whether the analysis of the program before
// transform t is also the analysis of the program t produces, so the
// replay can judge the next transform against it without re-running
// the fixpoint: t is an in-place rewrite of one instruction (the four
// folds and set-elide) that judgeTransform accepted as sound. Drops,
// unrolls and prune-taken change the CFG or the program's length, and
// an unsound transform proves nothing. DESIGN.md ("Static-audit
// state") gives the argument.
func keepsFixpoint(t peval.Transform, sound bool) bool {
	switch t.Kind {
	case peval.TFoldConst, peval.TFoldImm, peval.TFoldSReg, peval.TFoldCount, peval.TSetElide:
		return sound
	}
	return false
}

// ---- the audit ----

func specDiag(pc int, op, format string, args ...any) Diag {
	return Diag{Kind: KindUnsoundSpec, Instr: pc, Op: op, Reg: isa.RZ,
		Detail: fmt.Sprintf(format, args...)}
}

func scPureDroppable(op isa.Opcode) bool {
	switch op {
	case isa.MOV, isa.IADD, isa.IADD3, isa.IMUL, isa.IMAD, isa.IMNMX,
		isa.SHL, isa.SHR, isa.AND, isa.OR, isa.XOR, isa.SEL,
		isa.S2R, isa.LDC, isa.FADD, isa.FMUL, isa.FFMA, isa.MUFU,
		isa.F2I, isa.I2F:
		return true
	}
	return false
}

func scElidable(op isa.Opcode) bool {
	switch op {
	case isa.LDG, isa.STG, isa.LDL, isa.STL, isa.ATOMG:
		return true
	}
	return false
}

// scFoldable reports whether the claimed immediate round-trips through
// the 32-bit slot and the sign-extended register convention.
func scFoldable(imm int64, v uint64) bool {
	return int64(int32(imm)) == imm && isa.Sx32(int32(imm)) == v
}

// judgeTransform re-derives one transform's semantic side conditions
// on the current replay program under its analysis. Transforms
// anchored in unreachable code are accepted: code no execution reaches
// may be rewritten freely (and is dropped as unreachable anyway).
func judgeTransform(p *isa.Program, a *scAnalysis, t peval.Transform, c bounds.Contract) (Diag, bool) {
	ok := Diag{}
	switch t.Kind {
	case peval.TDrop:
		return judgeDrop(p, a, t)
	case peval.TUnroll:
		return judgeUnroll(p, a, t)
	}
	if t.PC < 0 || t.PC >= len(p.Instrs) {
		return specDiag(0, "", "%s: pc %d out of range [0, %d)", t.Kind, t.PC, len(p.Instrs)), false
	}
	in := &p.Instrs[t.PC]
	bad := func(format string, args ...any) (Diag, bool) {
		return specDiag(t.PC, in.Op.String(), format, args...), false
	}
	if !a.seen[t.PC] {
		return ok, true
	}
	st := a.fx.Kept(t.PC)
	if st == nil {
		return bad("no analysis state kept at pc %d", t.PC)
	}
	switch t.Kind {
	case peval.TSetElide:
		// Structural only: the E bit's in-bounds proof is re-derived for
		// the whole residual by the final ElideAudit pass.
		if !scElidable(in.Op) {
			return bad("set-elide on %s, not an extent-checked access", in.Op)
		}
		return ok, true
	case peval.TFoldCount:
		if in.Hint.A || in.Hint.E || !scUnpred(in) {
			return bad("fold-count on a hinted or predicated instruction")
		}
		if !scIsCountLoad(p, in, c) {
			return bad("fold-count target is not the count parameter's constant-bank load")
		}
		n, exact := scCountExact(c, p.NumParams)
		if !exact {
			return bad("contract does not pin the element count to one value")
		}
		if t.Imm != n {
			return bad("folded count %d != contract-pinned count %d", t.Imm, n)
		}
		if !scFoldable(t.Imm, uint64(n)) {
			return bad("count %d does not round-trip through the immediate slot", t.Imm)
		}
		return ok, true
	case peval.TFoldSReg:
		if in.Hint.A || in.Hint.E || !scUnpred(in) {
			return bad("fold-sreg on a hinted or predicated instruction")
		}
		if in.Op != isa.S2R {
			return bad("fold-sreg target is not an S2R")
		}
		v, pinned := scSregDim(isa.SReg(in.Aux), a.d)
		if !pinned {
			return bad("special register %d is not pinned by the contract's launch geometry", in.Aux)
		}
		if t.Imm != v || v < 0 || v > math.MaxInt32 {
			return bad("folded dimension %d != contract dimension %d", t.Imm, v)
		}
		return ok, true
	case peval.TFoldConst:
		if in.Hint.A || in.Hint.E || !scUnpred(in) {
			return bad("fold-const on a hinted or predicated instruction")
		}
		if !in.Op.IsInt() || in.Op == isa.SETP || !in.WritesDst() || in.Dst == isa.RZ {
			return bad("fold-const target %s does not compute a foldable register result", in.Op)
		}
		v, proven := scEvalALU(in, st)
		if !proven {
			return bad("result is not a proven constant under the contract")
		}
		if !scFoldable(t.Imm, v) {
			return bad("folded constant %d != proven result %d", t.Imm, int64(v))
		}
		return ok, true
	case peval.TFoldImm:
		if in.Hint.A || in.Hint.E {
			return bad("fold-imm on a hinted instruction")
		}
		if in.Op == isa.F2I || in.Op == isa.I2F {
			return bad("fold-imm on %s, whose execution unit ignores the immediate form", in.Op)
		}
		idx := in.Op.ImmSrcIndex()
		if idx < 0 || in.HasImm {
			return bad("%s has no free immediate slot", in.Op)
		}
		if in.Src[idx] == isa.RZ {
			return bad("fold-imm of the zero register is not a rewrite")
		}
		v, proven := st.reg(in.Src[idx])
		if !proven {
			return bad("operand %s is not a proven constant under the contract", in.Src[idx])
		}
		if !scFoldable(t.Imm, v) {
			return bad("folded operand %d != proven value %d", t.Imm, int64(v))
		}
		return ok, true
	case peval.TPruneTaken:
		if in.Op != isa.BRA || scUnpred(in) {
			return bad("prune-taken target is not a predicated branch")
		}
		known, val := st.guard(in)
		if !known || !val {
			return bad("branch guard is not proven always-true under the contract")
		}
		return ok, true
	default:
		return specDiag(t.PC, "", "unknown transform kind %q", t.Kind), false
	}
}

// judgeDrop re-derives every drop in the batch. Dead-writer reads are
// counted over the retained set (the batch's survivors): a chain of
// pure writers feeding only each other is genuinely dead together.
func judgeDrop(p *isa.Program, a *scAnalysis, t peval.Transform) (Diag, bool) {
	n := len(p.Instrs)
	dropped := make([]bool, n)
	for _, d := range t.Drops {
		if d.PC < 0 || d.PC >= n {
			return specDiag(0, "", "drop: pc %d out of range [0, %d)", d.PC, n), false
		}
		dropped[d.PC] = true
	}
	regReads := map[isa.Reg]int{}
	predReads := map[isa.PredReg]int{}
	var buf [3]isa.Reg
	for i := range p.Instrs {
		if dropped[i] {
			continue
		}
		in := &p.Instrs[i]
		for _, r := range in.SrcRegs(buf[:0]) {
			if r != isa.RZ {
				regReads[r]++
			}
		}
		if !scUnpred(in) {
			predReads[in.Pred&7]++
		}
		if in.Op == isa.SEL {
			predReads[isa.PredReg(in.Aux&7)]++
		}
	}
	for _, d := range t.Drops {
		in := &p.Instrs[d.PC]
		bad := func(format string, args ...any) (Diag, bool) {
			return specDiag(d.PC, in.Op.String(), format, args...), false
		}
		if !a.seen[d.PC] {
			continue // unreachable code may always go
		}
		switch d.Reason {
		case peval.DropUnreachable:
			return bad("claimed unreachable but the analysis reaches it")
		case peval.DropBranchFalse:
			if in.Op != isa.BRA || scUnpred(in) {
				return bad("branch-false drop of a non-predicated-branch")
			}
			st := a.fx.Kept(d.PC)
			if st == nil {
				return bad("no analysis state kept at pc %d", d.PC)
			}
			if known, val := st.guard(in); !known || val {
				return bad("branch guard is not proven always-false under the contract")
			}
		case peval.DropDead:
			if in.Hint.A || in.Hint.E || !scUnpred(in) {
				return bad("dead drop of a hinted or predicated instruction")
			}
			if !scPureDroppable(in.Op) || !in.WritesDst() || in.Dst == isa.RZ {
				return bad("dead drop of %s, which has effects beyond its register write", in.Op)
			}
			if regReads[in.Dst] != 0 {
				return bad("destination %s is read by a retained instruction", in.Dst)
			}
		case peval.DropDeadPred:
			if in.Hint.A || in.Hint.E || !scUnpred(in) {
				return bad("dead-pred drop of a hinted or predicated instruction")
			}
			if in.Op != isa.SETP && in.Op != isa.FSETP {
				return bad("dead-pred drop of %s, not a predicate writer", in.Op)
			}
			if predReads[isa.PredReg(in.Dst&7)] != 0 {
				return bad("predicate P%d is used by a retained instruction", in.Dst&7)
			}
		case peval.DropSSYUniform:
			if in.Op != isa.SSY {
				return bad("ssy-uniform drop of %s", in.Op)
			}
			justified := false
			for j := d.PC + 1; j < n; j++ {
				if dropped[j] {
					continue
				}
				nx := &p.Instrs[j]
				justified = nx.Op == isa.BRA && scUnpred(nx)
				break
			}
			if !justified {
				return bad("next retained instruction is not an unconditional branch")
			}
		default:
			return bad("unknown drop reason %q", d.Reason)
		}
	}
	return Diag{}, true
}

// judgeUnroll re-derives the constant trip count of the claimed loop
// region: the canonical counted-loop shape, a straight-line body, a
// loop-entry state (merged over every non-back-edge predecessor) that
// pins the induction register, and a concrete iteration of the body's
// update chain reaching exactly Trip repetitions.
func judgeUnroll(p *isa.Program, a *scAnalysis, t peval.Transform) (Diag, bool) {
	u := t.Unroll
	if u == nil {
		return specDiag(0, "", "unroll: missing region"), false
	}
	n := len(p.Instrs)
	h, bs, be := u.Head, u.BodyStart, u.BodyEnd
	bad := func(pc int, format string, args ...any) (Diag, bool) {
		op := ""
		if pc >= 0 && pc < n {
			op = p.Instrs[pc].Op.String()
		}
		return specDiag(pc, op, format, args...), false
	}
	if h < 1 || bs != h+4 || be < bs || be >= n || u.Exit != be+1 || u.Exit >= n {
		return bad(0, "unroll: malformed region head=%d body=[%d,%d) exit=%d", h, bs, be, u.Exit)
	}
	if !a.seen[h] {
		return Diag{}, true // an unreachable loop may be rewritten freely
	}
	head := &p.Instrs[h]
	guard := &p.Instrs[h+2]
	pd := isa.PredReg(head.Dst & 7)
	if head.Op != isa.SETP || !scUnpred(head) ||
		p.Instrs[h+1].Op != isa.SSY || !scUnpred(&p.Instrs[h+1]) || int(p.Instrs[h+1].Target) != u.Exit ||
		guard.Op != isa.BRA || guard.Pred != pd || guard.PredNeg || int(guard.Target) != bs ||
		p.Instrs[h+3].Op != isa.BRA || !scUnpred(&p.Instrs[h+3]) || int(p.Instrs[h+3].Target) != u.Exit ||
		p.Instrs[be].Op != isa.BRA || !scUnpred(&p.Instrs[be]) || int(p.Instrs[be].Target) != h {
		return bad(h, "unroll: region does not match the counted-loop shape")
	}
	wroteP := false
	for i := bs; i < be; i++ {
		in := &p.Instrs[i]
		switch in.Op {
		case isa.BRA, isa.SSY, isa.EXIT, isa.BAR:
			return bad(i, "unroll: control flow in the loop body")
		}
		if !scUnpred(in) {
			return bad(i, "unroll: predicated instruction in the loop body")
		}
		if in.Op == isa.SEL && isa.PredReg(in.Aux&7) == pd && !wroteP {
			return bad(i, "unroll: body reads the guard predicate before redefining it")
		}
		if (in.Op == isa.SETP || in.Op == isa.FSETP) && isa.PredReg(in.Dst&7) == pd {
			wroteP = true
		}
		if !head.HasImm && in.WritesDst() && in.Dst == head.Src[1] && in.Dst != isa.RZ {
			return bad(i, "unroll: body redefines the loop limit register")
		}
	}
	for i := range p.Instrs {
		if i >= h && i <= be {
			continue
		}
		in := &p.Instrs[i]
		if (in.Op == isa.BRA || in.Op == isa.SSY) && int(in.Target) > h && int(in.Target) <= be {
			return bad(i, "unroll: branch from outside enters the loop region")
		}
	}
	ind := head.Src[0]
	if u.IndReg != ind || ind == isa.RZ {
		return bad(h, "unroll: certificate induction register %s != guard source %s", u.IndReg, ind)
	}
	// Loop-entry state: meet of every reached predecessor's post-state
	// except the back edge.
	entry, out := a.fx.ScratchState(scEntry), a.fx.ScratchState(scOut)
	found := false
	for _, i := range a.g.Preds(h) {
		if !a.seen[i] || i == be {
			continue
		}
		st := a.fx.Kept(i)
		if st == nil {
			return bad(i, "unroll: no analysis state kept at loop-entry predecessor %d", i)
		}
		if !a.liveTo(i, h, st) {
			continue
		}
		out.copyFrom(st)
		scTransfer(a.p, a.c, a.d, i, out)
		if !found {
			entry.copyFrom(out)
			found = true
		} else {
			entry.meet(out)
		}
	}
	if !found {
		return bad(h, "unroll: loop head has no non-back-edge predecessor")
	}
	v, known := entry.reg(ind)
	if !known {
		return bad(h, "unroll: induction register %s not pinned at loop entry", ind)
	}
	var lim uint64
	if head.HasImm {
		lim = isa.Sx32(head.Imm)
	} else if lim, known = entry.reg(head.Src[1]); !known {
		return bad(h, "unroll: loop limit %s not pinned at loop entry", head.Src[1])
	}
	cmp := isa.CmpOp(head.Aux)
	copyLen := be - bs
	maxTrip := int64(1<<20) / int64(copyLen+1)
	trip := int64(0)
	for scCmpSigned(cmp, int64(v), int64(lim)) {
		trip++
		if trip > maxTrip {
			return bad(h, "unroll: trip count exceeds the structural bound")
		}
		st := a.fx.ScratchState(scTrip)
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
			if out, evOK := scEvalALU(in, st); evOK {
				st.setReg(in.Dst, out)
			} else {
				st.clearReg(in.Dst)
			}
		}
		if v, known = st.reg(ind); !known {
			return bad(h, "unroll: the body's induction update is not a proven constant step")
		}
	}
	if trip != u.Trip {
		return bad(h, "unroll: certificate trip count %d != derived trip count %d", u.Trip, trip)
	}
	return Diag{}, true
}

// SpecializeAudit independently re-derives the soundness of a
// specialization: the certificate's transformation log is replayed
// from the general program, each transform's side conditions judged by
// the linter's own analysis; the replayed program must match the
// shipped residual bit for bit (a mismatch pins the exact
// instruction); provenance and hint bits must be monotone (A hints
// preserved, no E hint resurrected into a check); and the residual's
// complete E-hint set is re-proven by the elide audit under the
// contract. Zero diagnostics means residual ≼ original under the
// contract: same faults, same safety decisions, no resurrected
// checks.
func SpecializeAudit(original, residual *isa.Program, cert *peval.Certificate, c bounds.Contract) []Diag {
	if cert == nil {
		return []Diag{specDiag(0, "", "missing specialization certificate")}
	}
	var structural []Diag
	if cert.Contract != c {
		structural = append(structural, specDiag(0, "", "certificate contract does not match the audited contract"))
	}
	if want := peval.ShapeOf(cert.Contract); cert.Shape != want {
		structural = append(structural, specDiag(0, "", "certificate shape %q != contract shape %q", cert.Shape, want))
	}
	if cert.OrigInstrs != len(original.Instrs) {
		structural = append(structural, specDiag(0, "", "certificate records %d original instructions, program has %d",
			cert.OrigInstrs, len(original.Instrs)))
	}
	if cert.ResidualInstrs != len(residual.Instrs) {
		structural = append(structural, specDiag(0, "", "certificate records %d residual instructions, program has %d",
			cert.ResidualInstrs, len(residual.Instrs)))
	}

	// Replay the log on one working copy of the original, judging every
	// transform against the analysis of the current replay state: kept
	// across an in-place rewrite the judge accepted, re-run after any
	// other transform. The in-place kinds rewrite the working program
	// under the kept analysis; only a drop or an unroll replaces it.
	// One analysis's storage serves them all.
	a := &scAnalysis{}
	p := &isa.Program{}
	*p = *original
	p.Instrs = append([]isa.Instr(nil), original.Instrs...)
	prov := make([]int, len(p.Instrs))
	for i := range prov {
		prov[i] = i
	}
	var replay []Diag
	stale := true
	for k, t := range cert.Transforms {
		if stale {
			a.analyze(p, c, cert.Transforms[k:])
		}
		d, sound := judgeTransform(p, a, t, c)
		if !sound {
			replay = append(replay, d)
		}
		q, pr, err := peval.ApplyTransform(p, prov, t)
		if err != nil {
			replay = append(replay, specDiag(0, "", "mechanical replay failed: %v", err))
			break
		}
		p, prov = q, pr
		stale = !keepsFixpoint(t, sound)
	}

	// The shipped residual must be exactly the replayed program. These
	// diagnostics come first: a tampered residual instruction pins here.
	var diffs []Diag
	if len(p.Instrs) != len(residual.Instrs) {
		diffs = append(diffs, specDiag(0, "", "replay produced %d instructions, residual ships %d",
			len(p.Instrs), len(residual.Instrs)))
	} else {
		for i := range p.Instrs {
			if p.Instrs[i] != residual.Instrs[i] {
				diffs = append(diffs, specDiag(i, residual.Instrs[i].Op.String(),
					"residual instruction does not match the certified replay"))
			}
		}
	}

	var post []Diag
	if len(cert.Provenance) != len(prov) {
		post = append(post, specDiag(0, "", "certificate provenance length %d != replayed %d",
			len(cert.Provenance), len(prov)))
	} else {
		for i := range prov {
			if cert.Provenance[i] != prov[i] {
				post = append(post, specDiag(i, "", "certificate provenance %d != replayed provenance %d",
					cert.Provenance[i], prov[i]))
				break
			}
		}
	}
	// Hint monotonicity against the original through the replayed
	// provenance: A/S hints ride unchanged, and an elision the general
	// program proved is never resurrected into a check.
	for i, src := range prov {
		if src < 0 || src >= len(original.Instrs) {
			post = append(post, specDiag(i, "", "provenance %d out of range", src))
			continue
		}
		o, r := &original.Instrs[src], &p.Instrs[i]
		if r.Hint.A != o.Hint.A || r.Hint.S != o.Hint.S {
			post = append(post, specDiag(i, r.Op.String(), "A/S hint bits diverge from origin instruction %d", src))
		}
		if o.Hint.E && !r.Hint.E {
			post = append(post, specDiag(i, r.Op.String(), "resurrected extent check: origin instruction %d was elided", src))
		}
	}

	diags := append(diffs, structural...)
	diags = append(diags, replay...)
	diags = append(diags, post...)
	// Finally, the residual's complete E-hint set — inherited and
	// pre-resolved alike — is re-proven from the residual microcode
	// alone, and the residual must satisfy the full LMI microcode
	// contract.
	diags = append(diags, ElideAudit(residual, c)...)
	diags = append(diags, Check(residual, compiler.ModeLMI)...)
	return diags
}
