package peval

import (
	"math"

	"lmi/internal/bounds"
	"lmi/internal/isa"
)

// sccp.go — sparse conditional constant propagation over the microcode
// under a launch contract. The transfer functions mirror the cycle
// simulator's execution semantics bit for bit (sign-extended 32-bit
// narrowing, full-width signed compares, the IMNMX Aux==1 max quirk,
// SSY being a plain state write rather than a jump), because a folded
// constant is only sound if it equals the value every lane of every
// warp would compute. A value is recorded known only when it is
// lane-invariant by construction: the register file starts zeroed,
// immediates and contract constants are uniform, and the
// thread-varying sources (TID/CTAID/LANEID reads, memory loads,
// pointer-hinted results) always produce unknown.

// sx32 sign-extends a 32-bit value into the 64-bit register convention.
func sx32(x int32) uint64 { return uint64(int64(x)) }

// consts is the abstract state at one program point: the registers and
// predicates whose values are proven identical across all lanes.
type consts struct {
	regs  map[isa.Reg]uint64
	preds map[isa.PredReg]bool
}

// entryState mirrors the machine's warp initialization: a zeroed
// register file, predicates false except hardwired-true PT.
func entryState() consts {
	s := consts{regs: map[isa.Reg]uint64{}, preds: map[isa.PredReg]bool{}}
	for p := isa.PredReg(0); p < 8; p++ {
		s.preds[p] = p == isa.PT
	}
	return s
}

func (s consts) clone() consts {
	c := consts{
		regs:  make(map[isa.Reg]uint64, len(s.regs)),
		preds: make(map[isa.PredReg]bool, len(s.preds)),
	}
	for r, v := range s.regs {
		c.regs[r] = v
	}
	for p, v := range s.preds {
		c.preds[p] = v
	}
	return c
}

// reg reads a register's known value (RZ is hardwired zero). The
// zeroed-register-file entry fact flows from entryState, so absence
// here genuinely means unknown.
func (s consts) reg(r isa.Reg) (uint64, bool) {
	if r == isa.RZ {
		return 0, true
	}
	v, ok := s.regs[r]
	return v, ok
}

func (s consts) setReg(r isa.Reg, v uint64) {
	if r != isa.RZ {
		s.regs[r] = v
	}
}

func (s consts) clearReg(r isa.Reg) {
	if r != isa.RZ {
		delete(s.regs, r)
	}
}

// meet intersects other into s and reports whether s changed.
func (s consts) meet(other consts) bool {
	changed := false
	for r, v := range s.regs {
		if ov, ok := other.regs[r]; !ok || ov != v {
			delete(s.regs, r)
			changed = true
		}
	}
	for p, v := range s.preds {
		if ov, ok := other.preds[p]; !ok || ov != v {
			delete(s.preds, p)
			changed = true
		}
	}
	return changed
}

// guard evaluates an instruction's guard predicate against the state:
// (known, value-after-negation).
func (s consts) guard(in *isa.Instr) (bool, bool) {
	v, ok := s.preds[in.Pred&7]
	if !ok {
		return false, false
	}
	if in.PredNeg {
		v = !v
	}
	return true, v
}

// dims holds the contract's normalized launch geometry when usable.
type dims struct {
	ok                 bool
	bdx, bdy, gdx, gdy int64
}

func contractDims(c bounds.Contract) dims {
	d := dims{bdx: c.BlockDimX, bdy: c.BlockDimY, gdx: c.GridDimX, gdy: c.GridDimY}
	if d.bdy == 0 {
		d.bdy = 1
	}
	if d.gdy == 0 {
		d.gdy = 1
	}
	d.ok = d.bdx >= 1 && d.bdx <= 1024 && d.gdx >= 1 && d.bdy >= 1 && d.gdy >= 1
	return d
}

// countExact returns the contract's pinned element count when the
// range is a single value an MOV immediate can represent.
func countExact(c bounds.Contract, numParams int) (int64, bool) {
	if c.CountParam < 0 || c.CountParam >= numParams {
		return 0, false
	}
	if c.CountMin < 1 || c.CountMin != c.CountMax || c.CountMax > math.MaxInt32 {
		return 0, false
	}
	return c.CountMax, true
}

// isCountLoad reports whether the instruction is the canonical
// constant-bank load of the contract's count parameter: an
// unpredicated 8-byte LDC at the parameter's byte offset with a zero
// base.
func isCountLoad(p *isa.Program, in *isa.Instr, c bounds.Contract) bool {
	if in.Op != isa.LDC || in.Src[0] != isa.RZ || in.AccSize() != 8 {
		return false
	}
	if c.CountParam < 0 || c.CountParam >= p.NumParams {
		return false
	}
	return int(in.Imm) == p.ParamBase+8*c.CountParam
}

// sregDim returns the contract-pinned value of a launch-geometry
// special register ((ok=false for the thread-varying ones).
func sregDim(sr isa.SReg, d dims) (int64, bool) {
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

// evalALU computes the constant result of an integer ALU instruction
// (other than SETP) from the state, mirroring the simulator's intOp:
// source collection with immediate routing, the per-op function, and
// the 32-bit narrowing sign-extension unless W64. Pointer-hinted
// instructions never evaluate: their result passes through the
// mechanism's check.
func evalALU(in *isa.Instr, s consts) (uint64, bool) {
	if in.Hint.A {
		return 0, false
	}
	src := func(i int) (uint64, bool) {
		if in.HasImm && i == in.Op.ImmSrcIndex() {
			return sx32(in.Imm), true
		}
		return s.reg(in.Src[i])
	}
	bin := func(f func(a, b uint64) uint64) (uint64, bool) {
		a, aok := src(0)
		b, bok := src(1)
		if !aok || !bok {
			return 0, false
		}
		return f(a, b), true
	}
	tern := func(f func(a, b, c uint64) uint64) (uint64, bool) {
		a, aok := src(0)
		b, bok := src(1)
		c, cok := src(2)
		if !aok || !bok || !cok {
			return 0, false
		}
		return f(a, b, c), true
	}
	w64 := in.W64()
	var out uint64
	var ok bool
	switch in.Op {
	case isa.MOV:
		out, ok = src(0)
	case isa.IADD:
		out, ok = bin(func(a, b uint64) uint64 { return a + b })
	case isa.IADD3:
		out, ok = tern(func(a, b, c uint64) uint64 { return a + b + c })
	case isa.IMUL:
		out, ok = bin(func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) })
	case isa.IMAD:
		out, ok = tern(func(a, b, c uint64) uint64 { return uint64(int64(a)*int64(b) + int64(c)) })
	case isa.IMNMX:
		out, ok = bin(func(a, b uint64) uint64 {
			ai, bi := int64(a), int64(b)
			if (in.Aux == 1) == (ai > bi) { // Aux 1 = max, exactly
				return uint64(ai)
			}
			return uint64(bi)
		})
	case isa.SHL:
		out, ok = bin(func(a, b uint64) uint64 {
			if w64 {
				return a << (b & 63)
			}
			return uint64(uint32(a) << (b & 31))
		})
	case isa.SHR:
		out, ok = bin(func(a, b uint64) uint64 {
			if w64 {
				return a >> (b & 63)
			}
			return uint64(uint32(a) >> (b & 31))
		})
	case isa.AND:
		out, ok = bin(func(a, b uint64) uint64 { return a & b })
	case isa.OR:
		out, ok = bin(func(a, b uint64) uint64 { return a | b })
	case isa.XOR:
		out, ok = bin(func(a, b uint64) uint64 { return a ^ b })
	case isa.SEL:
		pv, pok := s.preds[isa.PredReg(in.Aux&7)]
		if !pok {
			// Both arms equal and known is still a constant.
			a, aok := src(0)
			b, bok := src(1)
			if aok && bok && a == b {
				out, ok = a, true
			}
		} else if pv {
			out, ok = src(0)
		} else {
			out, ok = src(1)
		}
	default:
		return 0, false
	}
	if !ok {
		return 0, false
	}
	if !w64 {
		out = sx32(int32(out))
	}
	return out, true
}

// evalSETP computes a constant SETP predicate result (full 64-bit
// signed compare; an out-of-range comparator yields constant false,
// exactly as the machine does).
func evalSETP(in *isa.Instr, s consts) (bool, bool) {
	a, aok := s.reg(in.Src[0])
	var b uint64
	var bok bool
	if in.HasImm {
		b, bok = sx32(in.Imm), true
	} else {
		b, bok = s.reg(in.Src[1])
	}
	if !aok || !bok {
		return false, false
	}
	return cmpSigned(isa.CmpOp(in.Aux), int64(a), int64(b)), true
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

// transfer applies instruction i to a clone of st and returns the
// post-state. The guard is already resolved by the caller: gknown/gval
// say whether the instruction provably executes (or provably does
// not).
func transfer(p *isa.Program, c bounds.Contract, d dims, i int, st consts, gknown, gval bool) consts {
	out := st.clone()
	if gknown && !gval {
		return out // provably predicated off: no architectural effect
	}
	in := &p.Instrs[i]
	// An instruction whose guard is unknown may or may not write; its
	// destination must fall to unknown unless the written value would
	// equal the incumbent — handled by computing the effect and then
	// intersecting when the guard is unknown.
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
			delete(out.preds, isa.PredReg(pd))
			return
		}
		if weak {
			if old, known := st.preds[isa.PredReg(pd)]; !known || old != v {
				delete(out.preds, isa.PredReg(pd))
				return
			}
		}
		out.preds[isa.PredReg(pd)] = v
	}

	switch in.Op {
	case isa.NOP, isa.SYNC, isa.SSY, isa.BAR, isa.BRA, isa.EXIT, isa.TRAP,
		isa.STG, isa.STS, isa.STL, isa.FREE:
		// No register or predicate effect.
	case isa.SETP:
		v, ok := evalSETP(in, st)
		setPred(v, ok)
	case isa.FSETP:
		setPred(false, false)
	case isa.S2R:
		if v, ok := sregDim(isa.SReg(in.Aux), d); ok {
			setDst(uint64(v), true) // raw write, no narrowing
		} else {
			clearDst()
		}
	case isa.LDC:
		if n, ok := countExact(c, p.NumParams); ok && isCountLoad(p, in, c) {
			setDst(uint64(n), true) // raw 8-byte constant-bank read
		} else {
			clearDst()
		}
	case isa.LDG, isa.LDS, isa.LDL, isa.ATOMG, isa.ATOMS, isa.MALLOC:
		clearDst()
	case isa.FADD, isa.FMUL, isa.FFMA, isa.MUFU, isa.F2I, isa.I2F:
		clearDst()
	default:
		if in.Op.IsInt() {
			v, ok := evalALU(in, st)
			setDst(v, ok)
		} else {
			clearDst()
		}
	}
	return out
}

// analysis is the fixpoint result: the entry state and reachability of
// every instruction.
type analysis struct {
	p       *isa.Program
	c       bounds.Contract
	d       dims
	g       *isa.CFG
	in      []consts
	reached []bool
}

// live reports whether edge e out of instruction i is executable under
// the entry state st: a guard proven true kills the fall-through of a
// BRA or a predicated EXIT, a guard proven false kills a BRA's taken
// edge.
func (a *analysis) live(i int, e isa.Edge, st consts) bool {
	in := &a.p.Instrs[i]
	if in.Op != isa.BRA && in.Op != isa.EXIT {
		return true
	}
	gknown, gval := st.guard(in)
	return !gknown || gval == e.Taken
}

// liveTo reports whether a live edge leads from i to h.
func (a *analysis) liveTo(i, h int) bool {
	for _, e := range a.g.Succs(i) {
		if e.To == h && a.live(i, e, a.in[i]) {
			return true
		}
	}
	return false
}

// sccpAnalyze runs the conditional constant propagation to fixpoint.
func sccpAnalyze(p *isa.Program, c bounds.Contract) *analysis {
	n := len(p.Instrs)
	a := &analysis{
		p: p, c: c, d: contractDims(c), g: isa.NewCFG(p),
		in:      make([]consts, n),
		reached: make([]bool, n),
	}
	if n == 0 {
		return a
	}
	work := isa.NewWorklist(n)
	work.Push(0)
	a.in[0] = entryState()
	a.reached[0] = true
	for i, ok := work.Pop(); ok; i, ok = work.Pop() {
		st := a.in[i]
		in := &p.Instrs[i]
		gknown, gval := st.guard(in)
		out := transfer(p, c, a.d, i, st, gknown, gval)
		for _, e := range a.g.Succs(i) {
			if !a.live(i, e, st) {
				continue
			}
			if !a.reached[e.To] {
				a.reached[e.To] = true
				a.in[e.To] = out.clone()
				work.Push(e.To)
			} else if a.in[e.To].meet(out) {
				work.Push(e.To)
			}
		}
	}
	return a
}

// outState recomputes the post-state of a reached instruction.
func (a *analysis) outState(i int) consts {
	st := a.in[i]
	gknown, gval := st.guard(&a.p.Instrs[i])
	return transfer(a.p, a.c, a.d, i, st, gknown, gval)
}
