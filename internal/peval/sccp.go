package peval

import (
	"math"
	"slices"

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

// cval is a register value every lane holds, when known.
type cval struct {
	known bool
	v     uint64
}

// consts is the abstract state at one program point: the registers
// (isa.CFG.RegWidth of them) and predicates whose values are proven
// identical across all lanes; pk marks the known predicates.
type consts struct {
	regs   []cval
	pk, pv [8]bool
}

// entryState mirrors the machine's warp initialization: predicates
// false except hardwired-true PT, registers unknown.
func entryState(s *consts) {
	clear(s.regs)
	for p := range s.pk {
		s.pk[p], s.pv[p] = true, isa.PredReg(p) == isa.PT
	}
}

func (s *consts) copyFrom(src *consts) {
	copy(s.regs, src.regs)
	s.pk, s.pv = src.pk, src.pv
}

// reg reads a register's known value (RZ is hardwired zero).
func (s *consts) reg(r isa.Reg) (uint64, bool) {
	if r == isa.RZ {
		return 0, true
	}
	return s.regs[r].v, s.regs[r].known
}

func (s *consts) setReg(r isa.Reg, v uint64) {
	if r != isa.RZ {
		s.regs[r] = cval{known: true, v: v}
	}
}

func (s *consts) clearReg(r isa.Reg) {
	if r != isa.RZ {
		s.regs[r] = cval{}
	}
}

// meet intersects other into s and reports whether s changed.
func (s *consts) meet(other *consts) bool {
	changed := false
	for r := range s.regs {
		if s.regs[r].known && s.regs[r] != other.regs[r] {
			s.regs[r] = cval{}
			changed = true
		}
	}
	for p := range s.pk {
		if s.pk[p] && (!other.pk[p] || other.pv[p] != s.pv[p]) {
			s.pk[p], s.pv[p] = false, false
			changed = true
		}
	}
	return changed
}

// guard evaluates an instruction's guard predicate against the state:
// (known, value-after-negation).
func (s *consts) guard(in *isa.Instr) (bool, bool) {
	p := in.Pred & 7
	return s.pk[p], s.pk[p] && s.pv[p] != in.PredNeg
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
func sources(in *isa.Instr, s *consts) (vals [3]uint64, known [3]bool) {
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
func evalALU(in *isa.Instr, s *consts) (uint64, bool) {
	if in.Hint.A {
		return 0, false
	}
	k := in.ALU()
	vals, known := sources(in, s)
	var sel uint32
	if in.Op == isa.SEL {
		switch pv, pok := s.pv[k.Sel&7], s.pk[k.Sel&7]; {
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
func evalSETP(in *isa.Instr, s *consts) (bool, bool) {
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

// transfer advances st past instruction i in place; every fact it
// writes is computed from st before the write. A provably predicated
// off instruction has no architectural effect. One whose guard is
// unknown may or may not write, so its destination falls to unknown
// unless the written value equals the incumbent.
func transfer(p *isa.Program, c bounds.Contract, d dims, i int, st *consts) {
	in := &p.Instrs[i]
	gknown, gval := st.guard(in)
	if gknown && !gval {
		return
	}
	weak := !gknown

	clearDst := func() {
		if in.WritesDst() {
			st.clearReg(in.Dst)
		}
	}
	setDst := func(v uint64, ok bool) {
		if !in.WritesDst() {
			return
		}
		if !ok {
			st.clearReg(in.Dst)
			return
		}
		if weak {
			if old, known := st.reg(in.Dst); !known || old != v {
				st.clearReg(in.Dst)
				return
			}
		}
		st.setReg(in.Dst, v)
	}
	setPred := func(v bool, ok bool) {
		pd := in.Dst & 7
		if !ok || weak && (!st.pk[pd] || st.pv[pd] != v) {
			st.pk[pd], st.pv[pd] = false, false
			return
		}
		st.pk[pd], st.pv[pd] = true, v
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
}

// analysis is one round's constant analysis on the fixpoint driver,
// and the decisions its final walk read from the converged in-states.
type analysis struct {
	p  *isa.Program
	c  bounds.Contract
	d  dims
	g  *isa.CFG
	fx isa.Fixpoint[consts, cval]

	loops   []loop      // the unroll candidates, in back-edge order
	folds   []Transform // the in-place transforms, in pc order
	reached []bool      // per pc: the final walk reached it
	never   []bool      // per pc: a predicated BRA proven never taken
}

// loop is a counted loop of the canonical lowering shape: the SETP
// head, the body [bodyStart, bodyEnd), the back edge at bodyEnd; entry
// meets the states flowing into head from outside, found once one has.
type loop struct {
	head, bodyStart, bodyEnd, exit int
	entry                          *consts
	found                          bool
}

// The scratch states: a loop-entry predecessor's post-state, the trip
// computation's body state, then each loop's entry.
const (
	scratchOut = iota
	scratchTrip
	scratchLoops
)

// analyze runs the conditional constant propagation over p to fixpoint
// and collects the round's decisions in the final walk.
func (a *analysis) analyze(p *isa.Program, c bounds.Contract) {
	a.p, a.c, a.d, a.g = p, c, contractDims(c), isa.NewCFG(p)
	a.loops = findLoops(p, a.loops[:0])
	a.folds = a.folds[:0]
	a.reached = slices.Grow(a.reached[:0], len(p.Instrs))[:len(p.Instrs)]
	a.never = slices.Grow(a.never[:0], len(p.Instrs))[:len(p.Instrs)]
	clear(a.reached)
	clear(a.never)
	a.fx.Pass, a.fx.Scratch = a, scratchLoops+len(a.loops)
	a.fx.Init(a.g)
	for k := range a.loops {
		a.loops[k].entry = a.fx.ScratchState(scratchLoops + k)
	}
	a.fx.Run(entryState, math.MaxInt)
	a.fx.Final(a.visit)
}

// visit reads the in-state st of the reached instruction i: its fold,
// whether it is a branch never taken, and what it adds to the entry of
// each loop it enters from outside.
func (a *analysis) visit(i int, st *consts) {
	a.reached[i] = true
	if t, ok := foldAt(a.p, i, st, a.c, a.d); ok {
		a.folds = append(a.folds, t)
	}
	if in := &a.p.Instrs[i]; in.Op == isa.BRA && !unpredicated(in) {
		if known, val := st.guard(in); known && !val {
			a.never[i] = true
		}
	}
	for k := range a.loops {
		l := &a.loops[k]
		if i == l.bodyEnd || !a.liveTo(i, l.head, st) {
			continue
		}
		out := a.fx.ScratchState(scratchOut)
		out.copyFrom(st)
		transfer(a.p, a.c, a.d, i, out)
		if !l.found {
			l.entry.copyFrom(out)
			l.found = true
		} else {
			l.entry.meet(out)
		}
	}
}

// live reports whether edge e out of i is executable under i's
// in-state st: a guard proven true kills the fall-through of a BRA or
// a predicated EXIT, one proven false a BRA's taken edge.
func (a *analysis) live(i int, e isa.Edge, st *consts) bool {
	in := &a.p.Instrs[i]
	if in.Op != isa.BRA && in.Op != isa.EXIT {
		return true
	}
	gknown, gval := st.guard(in)
	return !gknown || gval == e.Taken
}

// liveTo reports whether a live edge leads from i, in state st, to h.
func (a *analysis) liveTo(i, h int, st *consts) bool {
	for _, e := range a.g.Succs(i) {
		if e.To == h && a.live(i, e, st) {
			return true
		}
	}
	return false
}

// Bind, Copy, Step, Edge and Join make the analysis an isa.Pass.
func (a *analysis) Bind(st *consts, regs []cval) { st.regs = regs }
func (a *analysis) Copy(dst, src *consts)        { dst.copyFrom(src) }
func (a *analysis) Step(pc int, st *consts)      { transfer(a.p, a.c, a.d, pc, st) }
func (a *analysis) Edge(pc int, e isa.Edge, st *consts) *consts {
	if !a.live(pc, e, st) {
		return nil
	}
	return st
}
func (a *analysis) Join(from, to int, dst, src *consts, fresh bool) bool {
	if fresh {
		dst.copyFrom(src)
		return true
	}
	return dst.meet(src)
}
