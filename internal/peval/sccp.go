package peval

import (
	"math"

	"lmi/internal/bounds"
	"lmi/internal/isa"
)

// sccp.go — sparse conditional constant propagation over the microcode
// under a launch contract. A folded constant is only sound if it equals
// the value every lane of every warp would compute, and that holds by
// construction: the values come from the same isa ALU kernels both
// execution tiers run (evalALU, evalSETP), with the same operand routing
// and narrowing. What this file adds is the abstract domain and the
// machine's control facts (SSY is a plain state write, not a jump). A
// value is recorded known only when it is lane-invariant by
// construction: the register file starts zeroed, immediates and
// contract constants are uniform, and the thread-varying sources
// (TID/CTAID/LANEID reads, memory loads, pointer-hinted results) always
// produce unknown.

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

// sources reads the known values of the instruction's sources, with
// the immediate form routed by ImmSrcIndex.
func sources(in *isa.Instr, s consts) (vals [3]uint64, known [3]bool) {
	for i := 0; i < in.Op.NumSrcs(); i++ {
		if in.HasImm && i == in.Op.ImmSrcIndex() {
			vals[i], known[i] = isa.Sx32(in.Imm), true
		} else {
			vals[i], known[i] = s.reg(in.Src[i])
		}
	}
	return vals, known
}

// bcast returns the row every lane of which holds v.
func bcast(v uint64) (r [32]uint64) {
	for l := range r {
		r[l] = v
	}
	return r
}

// evalALU computes the constant result of an integer ALU instruction
// (other than SETP) from the state: the instruction's isa kernel runs
// on broadcast rows of its known sources, and lane 0, narrowed as the
// kernel says, is the value. What stays here is the abstract domain:
// every source the opcode reads must be known, except that SEL needs
// only the arm its known selector picks, or two equal known arms when
// the selector is unknown. Pointer-hinted instructions never evaluate:
// their result passes through the mechanism's check.
func evalALU(in *isa.Instr, s consts) (uint64, bool) {
	if in.Hint.A {
		return 0, false
	}
	k := in.ALU()
	vals, known := sources(in, s)
	var sel uint32
	if in.Op == isa.SEL {
		switch pv, pok := s.preds[k.Sel]; {
		case !pok:
			// Both arms equal and known is still a constant.
			if vals[0] != vals[1] {
				return 0, false
			}
		case pv:
			sel, known[1] = ^uint32(0), true // the kernel never reads arm b
		default:
			known[0] = true // nor arm a
		}
	}
	for i := 0; i < in.Op.NumSrcs(); i++ {
		if !known[i] {
			return 0, false
		}
	}
	a, b, c := bcast(vals[0]), bcast(vals[1]), bcast(vals[2])
	var res [32]uint64
	k.Row(&res, &a, &b, &c, sel)
	if k.Narrow {
		return isa.Sx32(int32(res[0])), true
	}
	return res[0], true
}

// evalSETP computes a constant SETP predicate result from the state.
func evalSETP(in *isa.Instr, s consts) (bool, bool) {
	vals, known := sources(in, s)
	if !known[0] || !known[1] {
		return false, false
	}
	return setpHolds(in, vals[0], vals[1]), true
}

// setpHolds reports whether SETP in's comparison holds for a and b: the
// instruction's isa comparison on broadcast rows, read at lane 0.
func setpHolds(in *isa.Instr, a, b uint64) bool {
	k := in.ALU()
	ra, rb := bcast(a), bcast(b)
	return k.Set(&ra, &rb)&1 != 0
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
