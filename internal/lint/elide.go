package lint

// The elide audit is the static half of the E-bit soundness argument.
// internal/bounds proves accesses in bounds over the IR and the compiler
// plants E hints from those verdicts; this file re-derives the same
// in-bounds-ness from nothing but the shipped program's ISA-level
// register dataflow and the launch contract. The two analyses share no
// facts — only the arithmetic domain types — so a bug (or a tampered
// program: a chaos-planted spurious E) in either side surfaces as a
// KindUnsoundElide diagnostic pinned to the exact instruction.
//
// The abstract domain per register is a provenance kind (numeric,
// parameter/stack/heap pointer, raw stack address, extent material)
// carrying an interval and, for values bounded by the element-count
// parameter n, a symbolic affine upper bound floor((A*n+C)/D). The
// fixpoint runs over the instruction CFG with widening at backward
// branches; SETP facts refine the branch edges of the predicated BRAs
// that guard loop bodies, which is what bounds the loop counters feeding
// the min/mask address guards.

import (
	"fmt"
	"math"

	"lmi/internal/bounds"
	"lmi/internal/core"
	"lmi/internal/isa"
)

// ekind is the provenance of an abstract register value.
type ekind uint8

const (
	ekBot  ekind = iota // unreached
	ekTop               // no information
	ekNum               // numeric value bounded by iv/sym
	ekAddr              // untagged address at byte offset iv from the stack top
	ekExt               // extent material (SHL #59 result)
	ekParam             // tagged pointer iv bytes past parameter #site's base
	ekStack             // tagged pointer iv bytes past stack buffer #site's base
	ekHeap              // tagged pointer iv bytes past the MALLOC at index site
)

// String names the provenance for diagnostics.
func (k ekind) String() string {
	switch k {
	case ekNum:
		return "numeric"
	case ekAddr:
		return "untagged-stack-address"
	case ekExt:
		return "extent-material"
	case ekParam:
		return "parameter-pointer"
	case ekStack:
		return "stack-pointer"
	case ekHeap:
		return "heap-pointer"
	default:
		return "unknown"
	}
}

// eVal is one abstract register value: a provenance kind, the interval
// of the numeric value (ekNum) or byte offset from the allocation base
// (pointer kinds) or from the stack top (ekAddr), a symbolic upper
// bound on the same quantity, and the site identity for pointer kinds.
type eVal struct {
	kind  ekind
	iv    bounds.Interval
	sym   bounds.SymUB
	site  int   // param index (ekParam), stack-buffer index (ekStack), MALLOC instr (ekHeap)
	bytes int64 // heap allocation size (ekHeap)
}

func (v eVal) isPtr() bool { return v.kind == ekParam || v.kind == ekStack || v.kind == ekHeap }

const (
	eNegInf = math.MinInt64
	ePosInf = math.MaxInt64
)

func ivFull() bounds.Interval       { return bounds.Interval{Lo: eNegInf, Hi: ePosInf} }
func ivI32() bounds.Interval        { return bounds.Interval{Lo: math.MinInt32, Hi: math.MaxInt32} }
func ivConst(c int64) bounds.Interval { return bounds.Interval{Lo: c, Hi: c} }

func evTop() eVal              { return eVal{kind: ekTop, iv: ivFull()} }
func evNum(iv bounds.Interval) eVal { return eVal{kind: ekNum, iv: iv} }
func evConst(c int64) eVal     { return eVal{kind: ekNum, iv: ivConst(c)} }

// symValid mirrors the SymUB domain invariant (A >= 0, D a positive
// power of two) without reaching into the bounds package's internals.
func symValid(s bounds.SymUB) bool {
	return s.OK && s.A >= 0 && s.D >= 1 && s.D&(s.D-1) == 0
}

func symConstUB(c int64) bounds.SymUB { return bounds.SymUB{OK: true, A: 0, C: c, D: 1} }

// symOf is the symbolic upper bound of a numeric value: the tracked
// affine bound when present, else the interval's finite upper end as a
// constant bound.
func symOf(v eVal) bounds.SymUB {
	if symValid(v.sym) {
		return v.sym
	}
	if v.iv.Hi != ePosInf {
		return symConstUB(v.iv.Hi)
	}
	return bounds.SymUB{}
}

// symJoinUB keeps a bound across a merge only when both sides share A
// and D (taking the weaker constant); anything else drops it.
func symJoinUB(a, b bounds.SymUB) bounds.SymUB {
	if !symValid(a) || !symValid(b) {
		return bounds.SymUB{}
	}
	if a.A == b.A && a.D == b.D {
		c := a.C
		if b.C > c {
			c = b.C
		}
		return bounds.SymUB{OK: true, A: a.A, C: c, D: a.D}
	}
	return bounds.SymUB{}
}

// joinVal is the lattice join: kinds are flat (mismatched kinds or
// pointer sites widen to ekTop), matched values join their intervals
// and symbolic bounds.
func joinVal(a, b eVal) eVal {
	if a == b {
		return a
	}
	if a.kind == ekBot {
		return b
	}
	if b.kind == ekBot {
		return a
	}
	if a.kind != b.kind || a.site != b.site || a.bytes != b.bytes {
		return evTop()
	}
	a.iv = a.iv.Join(b.iv)
	a.sym = symJoinUB(a.sym, b.sym)
	return a
}

// widenVal accelerates a value against its previous entry state: any
// interval side that moved goes to infinity and an unstable symbolic
// bound is dropped, guaranteeing the fixpoint terminates.
func widenVal(old, j eVal) eVal {
	if j == old || old.kind != j.kind {
		return j
	}
	if j.iv.Lo < old.iv.Lo {
		j.iv.Lo = eNegInf
	}
	if j.iv.Hi > old.iv.Hi {
		j.iv.Hi = ePosInf
	}
	if j.sym != old.sym {
		j.sym = bounds.SymUB{}
	}
	return j
}

// clampNarrow models the sign-extension of a non-64-bit ALU result: a
// numeric value provably within int32 keeps its bounds (the low 32 bits
// are exact), anything else degrades to the full int32 range, and
// narrowed pointers or extent material become garbage.
func clampNarrow(v eVal) eVal {
	if v.kind != ekNum {
		return evTop()
	}
	if v.iv.Lo < math.MinInt32 || v.iv.Hi > math.MaxInt32 {
		return evNum(ivI32())
	}
	return v
}

// wrapGuard64 models 64-bit two's-complement wrap: a saturated interval
// side means the true result may have wrapped anywhere, so the whole
// value is unknown. Finite corner bounds certify the exact result.
func wrapGuard64(v eVal) eVal {
	if v.kind == ekNum && (v.iv.Lo == eNegInf || v.iv.Hi == ePosInf) {
		return evTop()
	}
	return v
}

// predFact is one SETP-established relation "x op y" usable to refine
// the edges of a predicated branch.
type predFact struct {
	ok     bool
	op     isa.CmpOp
	x, y   isa.Reg
	yImm   int64
	hasImm bool
}

// eState is the abstract machine state at one program point.
type eState struct {
	regs  [numRegs]eVal
	preds [isa.NumPredRegs]predFact
}

// auditor carries one elide-audit run.
type auditor struct {
	p *isa.Program
	c bounds.Contract

	countOK    bool // the contract bounds a count parameter
	dimsOK     bool // the contract's launch dimensions are usable
	bdx, gdx   int64
	bdy, gdy   int64
	entries    []eState
	reached    []bool
	incomplete bool
}

// ElideAudit re-derives the in-bounds-ness of every E (elide) hint from
// the linter's own ISA-level register dataflow under the launch
// contract and returns a KindUnsoundElide diagnostic, pinned to the
// exact instruction, for every E bit it cannot independently justify.
// A clean program (no E hints) audits clean by construction.
func ElideAudit(p *isa.Program, c bounds.Contract) []Diag {
	hasE := false
	for i := range p.Instrs {
		if p.Instrs[i].Hint.E {
			hasE = true
			break
		}
	}
	if !hasE {
		return nil
	}

	a := &auditor{p: p, c: c}
	a.countOK = c.CountParam >= 0 && c.CountMin >= 1 && c.CountMax >= c.CountMin &&
		c.PtrBytesPerCount > 0 && c.CountParam < p.NumParams
	a.bdx, a.gdx = c.BlockDimX, c.GridDimX
	a.bdy, a.gdy = c.BlockDimY, c.GridDimY
	if a.bdy == 0 {
		a.bdy = 1
	}
	if a.gdy == 0 {
		a.gdy = 1
	}
	a.dimsOK = a.bdx >= 1 && a.bdx <= 1024 && a.gdx >= 1 && a.bdy >= 1 && a.gdy >= 1

	n := len(p.Instrs)
	a.entries = make([]eState, n)
	a.reached = make([]bool, n)

	// Entry: every register holds garbage (unknown), no predicate facts.
	var init eState
	for r := range init.regs {
		init.regs[r] = evTop()
	}
	a.entries[0] = init
	a.reached[0] = true

	g := isa.NewCFG(p)
	work := isa.NewWorklist(n)
	work.Push(0)
	budget := 64*n + 1024
	for i, ok := work.Pop(); ok; i, ok = work.Pop() {
		if budget--; budget < 0 {
			a.incomplete = true
			break
		}
		st := a.entries[i]
		a.transfer(i, &st)
		in := &p.Instrs[i]
		if (in.Pred != isa.PT || in.PredNeg) && in.Op != isa.BRA {
			// Predicated non-branch: inactive lanes keep the old state.
			entry := a.entries[i]
			mergeState(&st, &entry)
		}
		for _, e := range g.Succs(i) {
			est := a.edgeState(i, e, &st)
			if a.mergeEntry(e.To, &est, e.To <= i) {
				work.Push(e.To)
			}
		}
	}

	var diags []Diag
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if !in.Hint.E || !a.reached[i] {
			continue
		}
		if a.incomplete {
			diags = append(diags, Diag{Kind: KindUnsoundElide, Instr: i, Op: in.Op.String(),
				Reg: in.Src[0], Detail: "analysis budget exhausted; elision unverifiable"})
			continue
		}
		if d, ok := a.judge(i, &a.entries[i]); !ok {
			diags = append(diags, d)
		}
	}
	return diags
}

// edgeState returns the state flowing along edge e out of instruction
// i. A predicated BRA splits the state: the taken edge learns the
// guarding SETP fact, the fall-through edge its negation.
func (a *auditor) edgeState(i int, e isa.Edge, st *eState) eState {
	in := &a.p.Instrs[i]
	out := *st
	if in.Op == isa.BRA && in.Pred < isa.PT {
		if f := st.preds[in.Pred]; f.ok {
			refineState(&out, f, e.Taken != in.PredNeg)
		}
	}
	return out
}

// mergeState joins src into dst elementwise, reporting growth.
func mergeState(dst, src *eState) bool {
	changed := false
	for r := range dst.regs {
		if j := joinVal(dst.regs[r], src.regs[r]); j != dst.regs[r] {
			dst.regs[r] = j
			changed = true
		}
	}
	for p := range dst.preds {
		if dst.preds[p] != src.preds[p] && dst.preds[p].ok {
			dst.preds[p] = predFact{}
			changed = true
		}
	}
	return changed
}

// mergeEntry merges an edge state into instruction to's entry, widening
// on backward edges (every cycle closes through one, so the fixpoint
// terminates without losing forward-edge refinement precision).
func (a *auditor) mergeEntry(to int, st *eState, back bool) bool {
	if !a.reached[to] {
		a.entries[to] = *st
		a.reached[to] = true
		return true
	}
	old := a.entries[to]
	changed := mergeState(&a.entries[to], st)
	if changed && back {
		for r := range a.entries[to].regs {
			a.entries[to].regs[r] = widenVal(old.regs[r], a.entries[to].regs[r])
		}
	}
	return changed
}

// negateCmp flips a comparison for the untaken edge.
func negateCmp(op isa.CmpOp) isa.CmpOp {
	switch op {
	case isa.CmpLT:
		return isa.CmpGE
	case isa.CmpLE:
		return isa.CmpGT
	case isa.CmpGT:
		return isa.CmpLE
	case isa.CmpGE:
		return isa.CmpLT
	case isa.CmpEQ:
		return isa.CmpNE
	default:
		return isa.CmpEQ
	}
}

// refineState narrows st with the fact "x op y" (negated when hold is
// false), mirroring the simulator's full-width signed SETP compare.
func refineState(st *eState, f predFact, hold bool) {
	op := f.op
	if !hold {
		op = negateCmp(op)
	}
	getv := func(r isa.Reg) eVal {
		if r == isa.RZ {
			return evConst(0)
		}
		return st.regs[r]
	}
	xv := getv(f.x)
	yv := evConst(f.yImm)
	if !f.hasImm {
		yv = getv(f.y)
	}
	if xv.kind != ekNum || yv.kind != ekNum {
		return
	}
	setx := func(v eVal) {
		if f.x != isa.RZ {
			st.regs[f.x] = v
		}
	}
	sety := func(v eVal) {
		if !f.hasImm && f.y != isa.RZ {
			st.regs[f.y] = v
		}
	}
	// Normalize GT/GE to LT/LE with the operands swapped.
	switch op {
	case isa.CmpGT:
		op = isa.CmpLT
		xv, yv = yv, xv
		setx, sety = sety, setx
	case isa.CmpGE:
		op = isa.CmpLE
		xv, yv = yv, xv
		setx, sety = sety, setx
	}
	switch op {
	case isa.CmpLT, isa.CmpLE:
		var slack int64
		if op == isa.CmpLT {
			slack = 1
		}
		if yv.iv.Hi != ePosInf && yv.iv.Hi-slack < xv.iv.Hi {
			xv.iv.Hi = yv.iv.Hi - slack
		}
		if !symValid(xv.sym) {
			xv.sym = symOf(yv).AddConst(-slack)
		}
		if xv.iv.Lo != eNegInf && xv.iv.Lo+slack > yv.iv.Lo {
			yv.iv.Lo = xv.iv.Lo + slack
		}
		setx(xv)
		sety(yv)
	case isa.CmpEQ:
		m := eVal{kind: ekNum,
			iv:  bounds.Interval{Lo: maxI64(xv.iv.Lo, yv.iv.Lo), Hi: minI64(xv.iv.Hi, yv.iv.Hi)},
			sym: xv.sym}
		if !symValid(m.sym) {
			m.sym = yv.sym
		}
		if m.iv.Lo <= m.iv.Hi {
			setx(m)
			sety(m)
		}
	}
}

// ckAdd, ckSub, and ckMul are overflow-checked int64 arithmetic for
// judge's accept conditions. The audited quantities are adversarial —
// a crafted or chaos-tampered program can drive sym.D toward 2^62 via
// shifts and off.Hi to a large finite saturation product — so any wrap
// must reject the elision instead of accepting an unsound one.
func ckAdd(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func ckSub(a, b int64) (int64, bool) {
	if b == math.MinInt64 {
		return 0, false
	}
	return ckAdd(a, -b)
}

func ckMul(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// transfer applies instruction i's abstract effect to st.
func (a *auditor) transfer(i int, st *eState) {
	in := &a.p.Instrs[i]

	get := func(r isa.Reg) eVal {
		if r == isa.RZ {
			return evConst(0)
		}
		return st.regs[r]
	}
	set := func(r isa.Reg, v eVal) {
		if r == isa.RZ {
			return
		}
		st.regs[r] = v
		// A rewritten register invalidates the predicate facts about it.
		for p := range st.preds {
			f := &st.preds[p]
			if f.ok && (f.x == r || (!f.hasImm && f.y == r)) {
				f.ok = false
			}
		}
	}

	switch in.Op {
	case isa.NOP, isa.SSY, isa.SYNC, isa.BAR, isa.BRA, isa.TRAP, isa.EXIT:
		return

	case isa.SETP:
		f := predFact{ok: true, op: isa.CmpOp(in.Aux), x: in.Src[0]}
		if in.HasImm {
			f.hasImm = true
			f.yImm = int64(in.Imm)
		} else {
			f.y = in.Src[1]
		}
		st.preds[in.Dst&7] = f
		return
	case isa.FSETP:
		st.preds[in.Dst&7] = predFact{}
		return

	case isa.S2R:
		set(in.Dst, a.s2rVal(isa.SReg(in.Aux)))
		return

	case isa.LDC:
		set(in.Dst, a.ldcVal(in))
		return

	case isa.MALLOC:
		sz := get(in.Src[0])
		if sz.kind == ekNum && sz.iv.IsConst() && sz.iv.Lo > 0 {
			set(in.Dst, eVal{kind: ekHeap, iv: ivConst(0), sym: symConstUB(0), site: i, bytes: sz.iv.Lo})
		} else {
			set(in.Dst, evTop())
		}
		return

	case isa.FREE:
		// The freed allocation is gone: no access through any alias of
		// this site is justifiable afterwards (temporal soundness). A
		// freed operand without traced heap provenance (a pointer
		// laundered through memory reloads as ekTop) could target any
		// heap site, so every heap fact dies.
		v := get(in.Src[0])
		for r := range st.regs {
			if st.regs[r].kind == ekHeap && (v.kind != ekHeap || st.regs[r].site == v.site) {
				st.regs[r] = evTop()
			}
		}
		set(in.Src[0], evTop())
		return
	}

	if in.Op.IsMemory() {
		if in.WritesDst() {
			set(in.Dst, evTop()) // loaded values carry no provenance
		}
		return
	}
	if !intALU[in.Op] {
		if in.WritesDst() {
			set(in.Dst, evTop())
		}
		return
	}

	// ---- Integer ALU ----
	w64 := in.W64()
	opv := func(idx int) eVal {
		if in.HasImm && in.Op.ImmSrcIndex() == idx {
			return evConst(int64(in.Imm))
		}
		return get(in.Src[idx])
	}

	var v eVal
	switch in.Op {
	case isa.MOV:
		v = opv(0)
	case isa.SEL:
		v = joinVal(opv(0), opv(1))
	case isa.IADD:
		v = addVals(opv(0), opv(1))
	case isa.IADD3:
		v = addVals(addVals(opv(0), opv(1)), opv(2))
	case isa.IMUL:
		v = mulVals(opv(0), opv(1))
	case isa.IMAD:
		v = addVals(mulVals(opv(0), opv(1)), opv(2))
	case isa.IMNMX:
		if in.Aux == 1 {
			v = maxVals(opv(0), opv(1))
		} else {
			v = minVals(opv(0), opv(1))
		}
	case isa.SHL:
		x, s := opv(0), opv(1)
		switch {
		case w64 && in.HasImm && in.Imm == int32(core.ExtentShift) && x.kind == ekNum:
			set(in.Dst, eVal{kind: ekExt, iv: ivFull()}) // trusted tagging sequence
			return
		default:
			v = shlVal(x, s, w64)
		}
	case isa.SHR:
		v = shrVal(opv(0), opv(1), w64)
	case isa.AND:
		v = andVals(opv(0), opv(1))
	case isa.OR:
		x, y := opv(0), opv(1)
		if w64 && !in.HasImm {
			if pv, ok := a.tagVal(x, y); ok {
				set(in.Dst, pv)
				return
			}
		}
		v = orVals(x, y)
	case isa.XOR:
		v = orVals(opv(0), opv(1)) // same nonneg bound: x^y <= x+y
	default:
		v = evTop()
	}

	if w64 {
		if v.kind == ekNum {
			v = wrapGuard64(v)
		}
	} else {
		v = clampNarrow(v)
	}
	set(in.Dst, v)
}

// tagVal recognizes the trusted OR-tagging idiom completing a pointer:
// extent material ORed into an untagged stack-buffer base yields a
// tagged stack pointer whose buffer (and reserved size) is identified
// by the address's constant offset from the stack top.
func (a *auditor) tagVal(x, y eVal) (eVal, bool) {
	ext, addr := x, y
	if addr.kind == ekExt {
		ext, addr = addr, ext
	}
	if ext.kind != ekExt || addr.kind != ekAddr || !addr.iv.IsConst() {
		return eVal{}, false
	}
	for k := range a.p.StackBuffers {
		if addr.iv.Lo == int64(a.p.StackBuffers[k].Offset)-int64(a.p.FrameSize) {
			return eVal{kind: ekStack, iv: ivConst(0), sym: symConstUB(0), site: k}, true
		}
	}
	return eVal{}, false
}

// s2rVal bounds a special register under the contract's launch
// geometry.
func (a *auditor) s2rVal(sr isa.SReg) eVal {
	if !a.dimsOK {
		return evTop()
	}
	rng := func(hi int64) eVal { return evNum(bounds.Interval{Lo: 0, Hi: hi}) }
	switch sr {
	case isa.SRTidX:
		return rng(a.bdx - 1)
	case isa.SRNtidX:
		return evConst(a.bdx)
	case isa.SRCtaidX:
		return rng(a.gdx - 1)
	case isa.SRNctaidX:
		return evConst(a.gdx)
	case isa.SRTidY:
		return rng(a.bdy - 1)
	case isa.SRNtidY:
		return evConst(a.bdy)
	case isa.SRCtaidY:
		return rng(a.gdy - 1)
	case isa.SRNctaidY:
		return evConst(a.gdy)
	case isa.SRLaneID:
		return rng(31)
	case isa.SRWarpID:
		return rng((a.bdx*a.bdy+31)/32 - 1)
	default:
		return evTop()
	}
}

// ldcVal classifies a constant-bank load: the per-thread stack top, a
// tagged pointer parameter, the contract-bounded element count, or
// unknown data.
func (a *auditor) ldcVal(in *isa.Instr) eVal {
	if in.Src[0] != isa.RZ || in.AccSize() != 8 {
		return evTop()
	}
	off := int(in.Imm)
	if off == a.p.StackPtrConst {
		return eVal{kind: ekAddr, iv: ivConst(0)}
	}
	if off >= a.p.ParamBase && (off-a.p.ParamBase)%8 == 0 {
		idx := (off - a.p.ParamBase) / 8
		if idx < a.p.NumParams {
			if idx < len(a.p.ParamPtrs) && a.p.ParamPtrs[idx] {
				return eVal{kind: ekParam, iv: ivConst(0), sym: symConstUB(0), site: idx}
			}
			if a.countOK && idx == a.c.CountParam {
				return eVal{kind: ekNum,
					iv:  bounds.Interval{Lo: a.c.CountMin, Hi: a.c.CountMax},
					sym: bounds.SymUB{OK: true, A: 1, C: 0, D: 1}}
			}
		}
	}
	return evTop()
}

// addVals adds two abstract values: numerics add intervals and symbolic
// bounds, a pointer or stack address advances its offset, anything else
// is unknown.
func addVals(x, y eVal) eVal {
	if y.isPtr() || (y.kind == ekAddr && x.kind == ekNum) {
		x, y = y, x
	}
	switch {
	case x.kind == ekNum && y.kind == ekNum:
		v := evNum(x.iv.Add(y.iv))
		v.sym = symOf(x).Add(symOf(y))
		return v
	case (x.isPtr() || x.kind == ekAddr) && y.kind == ekNum:
		x.iv = x.iv.Add(y.iv)
		x.sym = symOf(eVal{kind: ekNum, iv: x.iv, sym: x.sym}).Add(symOf(y))
		return x
	default:
		return evTop()
	}
}

// mulVals multiplies numerics; a nonnegative constant factor scales the
// symbolic bound.
func mulVals(x, y eVal) eVal {
	if x.kind != ekNum || y.kind != ekNum {
		return evTop()
	}
	v := evNum(x.iv.Mul(y.iv))
	switch {
	case y.iv.IsConst() && y.iv.Lo >= 0:
		v.sym = symOf(x).MulConst(y.iv.Lo)
	case x.iv.IsConst() && x.iv.Lo >= 0:
		v.sym = symOf(y).MulConst(x.iv.Lo)
	}
	return v
}

// minVals bounds min(x, y): below both upper bounds, above the smaller
// lower bound; either arm's symbolic bound applies (prefer the
// n-scaled one — that is the guard the proof needs).
func minVals(x, y eVal) eVal {
	if x.kind != ekNum || y.kind != ekNum {
		return evTop()
	}
	v := evNum(x.iv.Min(y.iv))
	sx, sy := symOf(x), symOf(y)
	if symValid(sy) && (sy.A > 0 || !symValid(sx)) {
		v.sym = sy
	} else {
		v.sym = sx
	}
	return v
}

// maxVals bounds max(x, y); the symbolic bound survives only when both
// arms carry a compatible one.
func maxVals(x, y eVal) eVal {
	if x.kind != ekNum || y.kind != ekNum {
		return evTop()
	}
	v := evNum(x.iv.Max(y.iv))
	v.sym = symJoinUB(symOf(x), symOf(y))
	return v
}

// shlVal shifts left by a constant amount (immediate or constant
// register), as multiplication by 2^k.
func shlVal(x, s eVal, w64 bool) eVal {
	if x.kind != ekNum || s.kind != ekNum || !s.iv.IsConst() {
		return evTop()
	}
	k := s.iv.Lo
	max := int64(31)
	if w64 {
		max = 62
	}
	if k < 0 || k > max {
		return evTop()
	}
	return mulVals(x, evConst(int64(1)<<uint(k)))
}

// shrVal shifts right by a constant amount. The hardware shift is
// logical: it matches floor division only for provably nonnegative
// values; a narrow shift of an unknown value still lands in
// [0, 2^(32-k)).
func shrVal(x, s eVal, w64 bool) eVal {
	if x.kind != ekNum || s.kind != ekNum || !s.iv.IsConst() {
		return evTop()
	}
	k := s.iv.Lo
	if k < 0 || k > 63 {
		return evTop()
	}
	nonneg := x.iv.Lo >= 0 && x.iv.Lo != eNegInf
	if !w64 {
		// 32-bit logical shift of the truncated value.
		if nonneg && x.iv.Hi <= math.MaxInt32 {
			v := evNum(bounds.Interval{Lo: x.iv.Lo >> uint(k), Hi: x.iv.Hi >> uint(k)})
			v.sym = symOf(x).ShrConst(k)
			return v
		}
		if k >= 1 && k <= 31 {
			return evNum(bounds.Interval{Lo: 0, Hi: (int64(1) << uint(32-k)) - 1})
		}
		return evNum(ivI32())
	}
	if !nonneg {
		return evTop() // a negative value shifts to a huge positive one
	}
	hi := x.iv.Hi
	if hi != ePosInf {
		hi >>= uint(k)
	}
	v := evNum(bounds.Interval{Lo: x.iv.Lo >> uint(k), Hi: hi})
	v.sym = symOf(x).ShrConst(k)
	return v
}

// andVals bounds x & y: masking with any nonnegative operand yields
// [0, that operand's upper bound], and the n-scaled symbolic bound of a
// nonnegative arm survives (the idx & (n-1) guard).
func andVals(x, y eVal) eVal {
	if x.kind != ekNum || y.kind != ekNum {
		return evTop()
	}
	xn := x.iv.Lo >= 0 && x.iv.Lo != eNegInf
	yn := y.iv.Lo >= 0 && y.iv.Lo != eNegInf
	if !xn && !yn {
		return evTop()
	}
	hi := int64(ePosInf)
	var sym bounds.SymUB
	if xn {
		hi = x.iv.Hi
		sym = symOf(x)
	}
	if yn && (hi == ePosInf || y.iv.Hi < hi) {
		hi = y.iv.Hi
	}
	if yn {
		if sy := symOf(y); symValid(sy) && (sy.A > 0 || !symValid(sym)) {
			sym = sy
		}
	}
	v := evNum(bounds.Interval{Lo: 0, Hi: hi})
	v.sym = sym
	return v
}

// orVals bounds x | y (and x ^ y): at most x + y for nonnegative
// operands.
func orVals(x, y eVal) eVal {
	if x.kind != ekNum || y.kind != ekNum ||
		x.iv.Lo < 0 || y.iv.Lo < 0 {
		return evTop()
	}
	v := evNum(bounds.Interval{Lo: 0, Hi: x.iv.Add(y.iv).Hi})
	v.sym = symOf(x).Add(symOf(y))
	return v
}

// judge decides whether the E hint on instruction i is justified by the
// entry state, returning the diagnostic otherwise.
func (a *auditor) judge(i int, st *eState) (Diag, bool) {
	in := &a.p.Instrs[i]
	addr := in.Src[0]
	v := st.regs[addr]
	bad := func(format string, args ...any) (Diag, bool) {
		return Diag{Kind: KindUnsoundElide, Instr: i, Op: in.Op.String(), Reg: addr,
			Detail: fmt.Sprintf(format, args...)}, false
	}
	if !v.isPtr() {
		return bad("elided address %s cannot be traced to a sized allocation (holds %s)", addr, v.kind)
	}
	off := v.iv.AddConst(int64(in.Imm))
	sym := v.sym.AddConst(int64(in.Imm))
	size := int64(in.AccSize())
	if off.Lo < 0 {
		return bad("elided access may underflow its allocation: offset lower bound %s",
			loStr(off.Lo))
	}
	switch v.kind {
	case ekStack:
		if v.site >= len(a.p.StackBuffers) {
			return bad("stack buffer #%d out of range", v.site)
		}
		sz := int64(a.p.StackBuffers[v.site].Size)
		if end, ok := ckAdd(off.Hi, size); off.Hi == ePosInf || !ok || end > sz {
			return bad("elided access at offset <= %s + %dB exceeds stack buffer #%d's %d reserved bytes",
				hiStr(off.Hi), size, v.site, sz)
		}
		return Diag{}, true
	case ekHeap:
		if end, ok := ckAdd(off.Hi, size); off.Hi == ePosInf || !ok || end > v.bytes {
			return bad("elided access at offset <= %s + %dB exceeds the %d-byte allocation at instr %d",
				hiStr(off.Hi), size, v.bytes, v.site)
		}
		return Diag{}, true
	case ekParam:
		if !a.countOK {
			return bad("pointer parameter #%d carries no size contract", v.site)
		}
		if floor, ok := ckMul(a.c.PtrBytesPerCount, a.c.CountMin); ok && off.Hi != ePosInf {
			if end, ok2 := ckAdd(off.Hi, size); ok2 && end <= floor {
				return Diag{}, true // within the smallest contract-conforming buffer
			}
		}
		// Symbolic: off <= floor((A*n+C)/D) and the buffer holds at least
		// PtrBytesPerCount*n bytes, so off+size <= bytes iff
		// C + D*size <= (D*PtrBytesPerCount - A) * n for the worst n.
		if symValid(sym) {
			dp, ok1 := ckMul(a.c.PtrBytesPerCount, sym.D)
			ds, ok2 := ckMul(sym.D, size)
			if ok1 && ok2 {
				if coeff, ok3 := ckSub(dp, sym.A); ok3 {
					nWorst := a.c.CountMin
					if coeff < 0 {
						nWorst = a.c.CountMax
					}
					rhs, ok4 := ckMul(coeff, nWorst)
					lhs, ok5 := ckAdd(sym.C, ds)
					if ok4 && ok5 && lhs <= rhs {
						return Diag{}, true
					}
				}
			}
		}
		return bad("elided access at offset <= %s + %dB not provably within parameter #%d's %d-byte-per-count buffer",
			hiStr(off.Hi), size, v.site, a.c.PtrBytesPerCount)
	}
	return bad("unhandled pointer kind %s", v.kind)
}

func hiStr(v int64) string {
	if v == ePosInf {
		return "+inf"
	}
	return fmt.Sprintf("%d", v)
}

func loStr(v int64) string {
	if v == eNegInf {
		return "-inf"
	}
	return fmt.Sprintf("%d", v)
}
