// Package race statically proves shared-memory race freedom and
// barrier convergence of compiled kernels.
//
// The analyzer partitions a program into barrier phases (the intervals
// between BAR instructions), computes a symbolic summary of every
// shared-memory access (LDS/STS/ATOMS) as an affine function of the
// thread coordinates plus launch- and phase-constant symbols, and then
// decides, for every pair of accesses that can execute in the same
// phase with at least one write, whether two DISTINCT threads of one
// block can touch overlapping bytes. Atomic-atomic pairs commute and
// are never races; every other overlapping pair is reported with the
// same classification the dynamic race oracle (internal/sim's
// RaceOracle) uses, so a static diagnosis can be pinned against an
// oracle record instruction-for-instruction.
//
// Barrier divergence — a BAR that only a subset of the block's threads
// reaches, which deadlocks real hardware even though the reconvergence
// stack of the simulators happens to tolerate some shapes — is
// detected flow-sensitively: branches whose guard is not provably
// block-uniform taint all program points up to their reconvergence
// point, and any BAR inside a tainted region (or a BAR under a
// thread-dependent guard predicate) is diagnosed.
//
// The analysis is sound for the ISA subset the compiler emits: a
// program with zero diagnostics has no intra-block shared-memory race
// and no divergent barrier under ANY input permitted by the bounds
// contract. It is not complete — unknown addresses and inconclusive
// overlap decisions are reported as diagnostics rather than silently
// dropped.
package race

import (
	"fmt"
	"sort"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// DiagKind classifies an analyzer diagnostic.
type DiagKind uint8

// Diagnostic kinds.
const (
	// KindRace is a potential intra-block shared-memory race.
	KindRace DiagKind = iota
	// KindBarrierDivergence is a BAR reachable by only part of a block.
	KindBarrierDivergence
	// KindUnknownAddress is a shared access whose address the analyzer
	// cannot express; it must be treated as racing with everything.
	KindUnknownAddress
	// KindNoConverge means the fixpoint budget was exhausted; results
	// would be unsound, so the whole program is flagged.
	KindNoConverge
)

// String returns the kind name.
func (k DiagKind) String() string {
	switch k {
	case KindRace:
		return "race"
	case KindBarrierDivergence:
		return "barrier-divergence"
	case KindUnknownAddress:
		return "unknown-address"
	case KindNoConverge:
		return "no-converge"
	default:
		return fmt.Sprintf("DiagKind(%d)", uint8(k))
	}
}

// Diag is one analyzer finding.
type Diag struct {
	Kind DiagKind
	// Race is the oracle-compatible classification when Kind is
	// KindRace.
	Race sim.RaceKind
	// PC and OtherPC identify the conflicting instructions (PC <=
	// OtherPC for races; OtherPC is -1 for single-site findings).
	PC, OtherPC int
	// Loc and OtherLoc are the IR source locations of PC and OtherPC
	// when the caller supplied a source map.
	Loc, OtherLoc compiler.SourceLoc
	Msg           string
}

// String renders the diagnostic one-per-line style.
func (d Diag) String() string {
	return fmt.Sprintf("[%s] %s", d.Kind, d.Msg)
}

// Result is the outcome of one analysis.
type Result struct {
	Diags []Diag
	// SharedAccesses counts the LDS/STS/ATOMS sites summarized.
	SharedAccesses int
	// PairsTested counts the same-phase pairs submitted to the overlap
	// decision.
	PairsTested int
	// Phases counts the barrier-phase regions.
	Phases int
	// Converged reports whether the fixpoint finished within budget.
	Converged bool
}

// Clean reports whether the program was proved race- and
// divergence-free.
func (r *Result) Clean() bool { return len(r.Diags) == 0 }

// Analyze runs the race and barrier-divergence analysis over p under
// the launch geometry and parameter ranges of c. src, when non-nil, is
// the PC-indexed source map from CompileWithSourceMap and is used only
// to decorate diagnostics.
func Analyze(p *isa.Program, c bounds.Contract, src []compiler.SourceLoc) *Result {
	ax := newAnalysis(p, c, src)
	ax.run()
	return ax.report()
}

// divAll is the divergence-set sentinel for a divergent branch with no
// structural reconvergence point: the taint never clears.
const divAll int32 = -2

// pfact is the snapshot of one SETP: predicate register holds
// (xv op yv). The snapshot values stay valid forever (they are
// values, not registers); xok/yok additionally record that the operand
// REGISTERS still hold those values, which is what interval tightening
// of the registers on a refined edge requires.
type pfact struct {
	ok       bool
	uni      bool
	op       isa.CmpOp
	xr, yr   isa.Reg
	xok, yok bool
	xv, yv   rval
}

func pfactEq(a, b pfact) bool {
	return a.ok == b.ok && a.uni == b.uni && a.op == b.op &&
		a.xr == b.xr && a.yr == b.yr && a.xok == b.xok && a.yok == b.yok &&
		eqRV(a.xv, b.xv) && eqRV(a.yv, b.yv)
}

// lincon is one linear path constraint: sum(coef*var) <= c over
// constraint variables (varTidX, varTidY, symbols).
type lincon struct {
	ts []term
	c  int64
}

func linconEq(a, b lincon) bool { return a.c == b.c && termsEqual(a.ts, b.ts) }

// maxCons bounds the per-state constraint list; dropping constraints
// is always sound.
const maxCons = 24

// state is the abstract machine state at one program point. regs holds
// one slot per register below the program's isa.CFG.RegWidth.
type state struct {
	regs  []rval
	preds [isa.NumPredRegs + 1]pfact
	cons  []lincon
	// div is the sorted set of open reconvergence PCs: join points of
	// thread-dependent branches not yet reached on this path.
	div []int32
}

// copyFrom overwrites s with src, reusing s's storage. States never
// share a regs, cons or div backing array; the term lists inside values
// and constraints are never written after construction, so they are
// shared freely.
func (s *state) copyFrom(src *state) {
	s.regs = append(s.regs[:0], src.regs...)
	s.preds = src.preds
	s.cons = append(s.cons[:0], src.cons...)
	s.div = append(s.div[:0], src.div...)
}

func stateEq(a, b *state) bool {
	if len(a.regs) != len(b.regs) ||
		len(a.cons) != len(b.cons) || len(a.div) != len(b.div) {
		return false
	}
	for i := range a.regs {
		if !eqRV(a.regs[i], b.regs[i]) {
			return false
		}
	}
	for i := range a.preds {
		if !pfactEq(a.preds[i], b.preds[i]) {
			return false
		}
	}
	for i := range a.cons {
		if !linconEq(a.cons[i], b.cons[i]) {
			return false
		}
	}
	for i := range a.div {
		if a.div[i] != b.div[i] {
			return false
		}
	}
	return true
}

func hasDiv(d []int32, pc int32) bool {
	for _, x := range d {
		if x == pc {
			return true
		}
	}
	return false
}

func addDiv(d []int32, pc int32) []int32 {
	if hasDiv(d, pc) {
		return d
	}
	out := append(append([]int32(nil), d...), pc)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func removeDiv(d []int32, pc int32) []int32 {
	if !hasDiv(d, pc) {
		return d
	}
	out := make([]int32, 0, len(d)-1)
	for _, x := range d {
		if x != pc {
			out = append(out, x)
		}
	}
	return out
}

func unionDiv(a, b []int32) []int32 {
	out := a
	for _, x := range b {
		out = addDiv(out, x)
	}
	return out
}

// intersectCons keeps the constraints of a that b also holds, in a's
// order, filtering a in place.
func intersectCons(a, b []lincon) []lincon {
	out := a[:0]
	for _, ca := range a {
		for _, cb := range b {
			if linconEq(ca, cb) {
				out = append(out, ca)
				break
			}
		}
	}
	return out
}

func addCon(cons []lincon, nc lincon) []lincon {
	if len(nc.ts) == 0 || len(cons) >= maxCons {
		return cons
	}
	for _, c := range cons {
		if linconEq(c, nc) {
			return cons
		}
	}
	return append(cons, nc)
}

// varInfo is one constraint variable: its value range and, for
// merge-point symbols, the defining merge PC and register.
type varInfo struct {
	rng     bounds.Interval
	home    int
	homeReg isa.Reg
}

type mergeKey struct {
	pc  int
	reg isa.Reg
}

// access is one shared-memory access site summary.
type access struct {
	pc      int
	kind    sim.RaceAccessKind
	size    int64
	rv      rval
	cons    []lincon
	regions []int
}

type diagKey struct {
	kind    DiagKind
	race    sim.RaceKind
	pc, opc int
}

type analysis struct {
	p   *isa.Program
	src []compiler.SourceLoc
	c   bounds.Contract

	bx, by, gx, gy int64

	vars     []varInfo
	mergeSym map[mergeKey]int32
	homeSyms map[int][]int32
	symDirty bool

	g      *isa.CFG
	fx     isa.Fixpoint[state, rval]
	steps  int // instructions stepped
	homeFR []symRange

	oncePhaseMemo map[int]bool

	converged bool
	diags     map[diagKey]Diag

	sharedAccesses int
	pairsTested    int
	phases         int
}

func newAnalysis(p *isa.Program, c bounds.Contract, src []compiler.SourceLoc) *analysis {
	ax := &analysis{
		p: p, src: src, c: c, g: isa.NewCFG(p),
		bx: c.BlockDimX, by: c.BlockDimY, gx: c.GridDimX, gy: c.GridDimY,
		mergeSym:      map[mergeKey]int32{},
		homeSyms:      map[int][]int32{},
		oncePhaseMemo: map[int]bool{},
		converged:     true,
		diags:         map[diagKey]Diag{},
	}
	if ax.bx < 1 {
		ax.bx = 1
	}
	if ax.by < 1 {
		ax.by = 1
	}
	if ax.gx < 1 {
		ax.gx = 1
	}
	if ax.gy < 1 {
		ax.gy = 1
	}
	// Predefined variables: thread coordinates, block coordinates, then
	// one per kernel parameter (pointer parameters keep the slot for id
	// stability but are never referenced).
	ax.vars = []varInfo{
		{rng: bounds.Interval{Lo: 0, Hi: ax.bx - 1}, home: -1},
		{rng: bounds.Interval{Lo: 0, Hi: ax.by - 1}, home: -1},
		{rng: bounds.Interval{Lo: 0, Hi: ax.gx - 1}, home: -1},
		{rng: bounds.Interval{Lo: 0, Hi: ax.gy - 1}, home: -1},
	}
	for i := 0; i < p.NumParams; i++ {
		rng := bounds.Interval{Lo: -1 << 31, Hi: 1<<31 - 1}
		if i == c.CountParam {
			rng = bounds.Interval{Lo: c.CountMin, Hi: c.CountMax}
		}
		ax.vars = append(ax.vars, varInfo{rng: rng, home: -1})
	}
	return ax
}

func (ax *analysis) varRange(v int32) bounds.Interval {
	if int(v) < len(ax.vars) {
		return ax.vars[v].rng
	}
	return ivTop()
}

// affRange bounds the affine (tid + symbol) part of v.
func (ax *analysis) affRange(v rval) bounds.Interval {
	r := ivSingle(0)
	if v.cx != 0 {
		r = r.Add(ivSingle(v.cx).Mul(bounds.Interval{Lo: 0, Hi: ax.bx - 1}))
	}
	if v.cy != 0 {
		r = r.Add(ivSingle(v.cy).Mul(bounds.Interval{Lo: 0, Hi: ax.by - 1}))
	}
	for _, t := range v.terms {
		r = r.Add(ivSingle(t.coef).Mul(ax.varRange(t.v)))
	}
	return r
}

// fullRange bounds the whole value of v.
func (ax *analysis) fullRange(v rval) bounds.Interval {
	if v.k != rkVal {
		return ivTop()
	}
	return ax.affRange(v).Add(v.iv)
}

func (ax *analysis) newSym(pc int, reg isa.Reg, rng bounds.Interval) int32 {
	vid := int32(len(ax.vars))
	ax.vars = append(ax.vars, varInfo{rng: rng, home: pc, homeReg: reg})
	ax.mergeSym[mergeKey{pc, reg}] = vid
	ax.homeSyms[pc] = append(ax.homeSyms[pc], vid)
	return vid
}

// widenIvThresh widens a grown interval with a single threshold at 0:
// a descending lower bound pauses at 0 before falling to -inf, which
// preserves the non-negativity of tree-reduction strides and loop
// counters without a full narrowing pass.
func widenIvThresh(old, j bounds.Interval) bounds.Interval {
	if j.Lo < old.Lo {
		if j.Lo >= 0 {
			j.Lo = 0
		} else {
			j.Lo = negInf
		}
	}
	if j.Hi > old.Hi {
		j.Hi = posInf
	}
	return j
}

func (ax *analysis) growSym(vid int32, fr bounds.Interval, back bool) {
	cur := ax.vars[vid].rng
	j := cur.Join(fr)
	if j == cur {
		return
	}
	if back {
		j = widenIvThresh(cur, j)
	}
	if j != cur {
		ax.vars[vid].rng = j
		ax.symDirty = true
	}
}

// scrubSym removes every mention of a stale symbol from a state:
// register values referencing it go to top (uniformity is a runtime
// property of the register and survives), constraints and predicate
// snapshots referencing it are dropped.
func scrubSym(st *state, vid int32) {
	for i := range st.regs {
		if st.regs[i].mentionsSym(vid) {
			st.regs[i] = mkTop(st.regs[i].uni)
		}
	}
	for i := range st.preds {
		pf := &st.preds[i]
		if pf.ok && (pf.xv.mentionsSym(vid) || pf.yv.mentionsSym(vid)) {
			*pf = pfact{uni: pf.uni}
		}
	}
	kept := st.cons[:0]
	for _, c := range st.cons {
		touch := false
		for _, t := range c.ts {
			if t.v == vid {
				touch = true
				break
			}
		}
		if !touch {
			kept = append(kept, c)
		}
	}
	st.cons = kept
}

// --- the pass on the fixpoint driver ---

// symRange is a symbol homed at a merge point and the full range of its
// home register in the state flowing in, taken before the scrub.
type symRange struct {
	vid int32
	fr  bounds.Interval
}

// The scratch states: the refined states of a branch's taken edge and
// of the fall-through of a branch or predicated EXIT.
const (
	raceTaken = iota
	raceFall
	raceScratch
)

func (ax *analysis) run() {
	ax.fx.Pass, ax.fx.Keep, ax.fx.Equal, ax.fx.Scratch = ax, ax.keeps, stateEq, raceScratch
	ax.fx.Init(ax.g)
	ax.converged = ax.fx.Run(func(st *state) {
		for i := range st.regs {
			st.regs[i] = mkConst(0) // register files are zero-initialized
		}
		st.preds = [isa.NumPredRegs + 1]pfact{}
		st.cons, st.div = st.cons[:0], st.div[:0]
	}, 256*len(ax.p.Instrs)+8192)
}

// keeps chooses the kept states: every shared access and barrier, the
// only places the reporting reads, and the last instruction of every
// run longer than one, where an unchanged walk stops before flowing
// into the successors again.
func (ax *analysis) keeps(pc int) bool {
	switch ax.p.Instrs[pc].Op {
	case isa.LDS, isa.STS, isa.ATOMS, isa.BAR:
		return true
	}
	return !ax.g.RunHead(pc) && (pc == len(ax.p.Instrs)-1 || ax.g.RunHead(pc+1))
}

// Bind, Copy, Step, Edge and Join make the analysis an isa.Pass.
func (ax *analysis) Bind(st *state, regs []rval) { st.regs = regs }
func (ax *analysis) Copy(dst, src *state)        { dst.copyFrom(src) }

// Step clears pc's reconvergence mark on entry and applies its transfer.
func (ax *analysis) Step(pc int, st *state) {
	ax.steps++
	st.div = removeDiv(st.div, int32(pc))
	ax.transfer(st, &ax.p.Instrs[pc])
}

// Edge refines the state along an edge out of a BRA or EXIT: a BRA's
// taken edge carries its guard-true lanes, the fall-through of a BRA or
// a predicated EXIT its guard-false lanes. (Exited lanes do not block
// barriers in either simulator, so a thread-dependent EXIT is not
// barrier divergence.) An edge the guard's constraints make infeasible
// is dead. Every other edge carries st.
func (ax *analysis) Edge(pc int, e isa.Edge, st *state) *state {
	in := &ax.p.Instrs[pc]
	if in.Op != isa.EXIT && in.Op != isa.BRA {
		return st
	}
	est := ax.fx.ScratchState(raceFall)
	if e.Taken {
		est = ax.fx.ScratchState(raceTaken)
	}
	est.copyFrom(st)
	if !ax.refineGuard(est, in.Pred, e.Taken != in.PredNeg) {
		return nil
	}
	if in.Op == isa.BRA && in.Pred != isa.PT && !st.preds[in.Pred&7].uni {
		join := divAll
		if r := ax.g.Reconv(pc); r >= 0 {
			join = int32(r)
		}
		est.div = addDiv(est.div, join)
	}
	return est
}

// Join merges an out-state into the entry of run head to; it may scrub
// inc.
func (ax *analysis) Join(from, to int, old, inc *state, fresh bool) bool {
	ax.scrubHome(to, inc)
	// Single static in-edge: the entry here IS the predecessor's
	// out-state, so a revisit replaces it outright. Joining would treat
	// successive fixpoint rounds as a control-flow merge, spawning
	// symbols and widening along straight-line code.
	if fresh || ax.g.InDegree(to) <= 1 {
		if !fresh && stateEq(old, inc) {
			return false
		}
		old.copyFrom(inc)
		return true
	}
	changed, reset := ax.join(from, to, old, inc)
	if reset {
		// A symbol minted here: discard the region downstream, and let
		// every edge from outside it re-deliver its contribution.
		ax.fx.Drop(to)
		ax.fx.Requeue()
	}
	if ax.symDirty {
		// A symbol's global range grew: transfer results depending on it
		// (shift residuals, full-range guards) are stale everywhere.
		ax.symDirty = false
		ax.fx.Requeue()
	}
	return changed
}

// scrubHome prepares a state flowing into `to`. Symbols homed there are
// being redefined: it captures the incoming full range of each home
// register first (its value is expressed in terms of the PREVIOUS
// symbol value, whose range is still the one to fold in), then scrubs
// every stale mention from the incoming state.
func (ax *analysis) scrubHome(to int, inc *state) {
	ax.homeFR = ax.homeFR[:0]
	for _, vid := range ax.homeSyms[to] {
		ax.homeFR = append(ax.homeFR, symRange{vid, ax.fullRange(inc.regs[ax.vars[vid].homeReg])})
	}
	for _, vid := range ax.homeSyms[to] {
		scrubSym(inc, vid)
	}
}

// join merges inc into old, the live entry of the merge point `to`
// (more than one static in-edge), after scrubHome. It reports whether
// old changed and whether a symbol minted here requires the region
// downstream to be reset.
func (ax *analysis) join(from, to int, old, inc *state) (changed, needReset bool) {
	back := to <= from
	d := hasDiv(old.div, int32(to)) || hasDiv(inc.div, int32(to)) ||
		hasDiv(old.div, divAll) || hasDiv(inc.div, divAll)

	oncePhase := -1 // lazily resolved
	for r := range old.regs {
		a, b := old.regs[r], inc.regs[r]
		if eqRV(a, b) {
			continue
		}
		if vid, ok := ax.mergeSym[mergeKey{to, isa.Reg(r)}]; ok {
			fr, have := ax.homeRange(vid)
			if !have {
				fr = ax.fullRange(b)
			}
			ax.growSym(vid, fr, back)
			tv := mkSym(vid)
			if !eqRV(a, tv) {
				old.regs[r] = tv
				changed = true
			}
			continue
		}
		// A merge of differing block-uniform values at a point that
		// executes at most once per barrier phase defines a phase
		// constant: name it, so both threads of a same-phase access pair
		// share it and it cancels in their address difference.
		if a.uni && b.uni && !d {
			if oncePhase < 0 {
				if ax.oncePerPhase(to) {
					oncePhase = 1
				} else {
					oncePhase = 0
				}
			}
			if oncePhase == 1 {
				vid := ax.newSym(to, isa.Reg(r), ax.fullRange(a).Join(ax.fullRange(b)))
				old.regs[r] = mkSym(vid)
				needReset = true
				changed = true
				continue
			}
		}
		j := joinRV(a, b, d)
		if back {
			j = widenRV(a, j)
			j.iv = widenIvThresh(a.iv, j.iv)
			if j.m == 0 && !j.iv.IsConst() {
				j.m, j.r = congNone()
			}
		}
		if !eqRV(a, j) {
			old.regs[r] = j
			changed = true
		}
	}

	for i := range old.preds {
		a, b := old.preds[i], inc.preds[i]
		if pfactEq(a, b) {
			continue
		}
		nu := pfact{uni: a.uni && b.uni && !d}
		// Matching facts from different fixpoint rounds (or converging
		// paths) join component-wise: the comparison shape is the same,
		// only the value snapshots differ, and the join of snapshots is
		// a sound snapshot. Killing the fact here instead would lose the
		// loop-bound refinement that keeps loop counters finite.
		if a.ok && b.ok && a.op == b.op && a.xr == b.xr && a.yr == b.yr {
			nu = pfact{
				ok: true, uni: nu.uni, op: a.op,
				xr: a.xr, yr: a.yr,
				xok: a.xok && b.xok, yok: a.yok && b.yok,
				xv: joinRV(a.xv, b.xv, d), yv: joinRV(a.yv, b.yv, d),
			}
			if back {
				nu.xv = widenRV(a.xv, nu.xv)
				nu.yv = widenRV(a.yv, nu.yv)
			}
		}
		if !pfactEq(a, nu) {
			old.preds[i] = nu
			changed = true
		}
	}

	nc := intersectCons(old.cons, inc.cons)
	if len(nc) != len(old.cons) {
		old.cons = nc
		changed = true
	}
	nd := unionDiv(old.div, inc.div)
	if len(nd) != len(old.div) {
		old.div = nd
		changed = true
	}
	// A new symbol minted at this merge needs a reset: earlier fixpoint
	// rounds already propagated the pre-symbol constant downstream. A
	// downstream merge would join that stale constant with the fresh
	// symbol and top out (the lattice has no "constant OR this symbol"
	// element), so the caller discards every entry reachable from here
	// and lets the fixpoint repopulate the region from the symbol.
	return changed, needReset
}

// homeRange returns the full range scrubHome captured for symbol vid.
func (ax *analysis) homeRange(vid int32) (bounds.Interval, bool) {
	for _, h := range ax.homeFR {
		if h.vid == vid {
			return h.fr, true
		}
	}
	return bounds.Interval{}, false
}

// --- transfer functions (mirroring internal/sim/exec.go) ---

func (ax *analysis) get(st *state, r isa.Reg) rval {
	if r == isa.RZ {
		return mkConst(0)
	}
	return st.regs[r]
}

func (ax *analysis) opv(st *state, in *isa.Instr, i int) rval {
	if in.HasImm && i == in.Op.ImmSrcIndex() {
		return mkConst(int64(in.Imm))
	}
	return ax.get(st, in.Src[i])
}

func setReg(st *state, d isa.Reg, v rval) {
	if d == isa.RZ {
		return
	}
	st.regs[d] = v
	for i := range st.preds {
		pf := &st.preds[i]
		if pf.xok && pf.xr == d {
			pf.xok = false
		}
		if pf.yok && pf.yr == d {
			pf.yok = false
		}
	}
}

// normWidth applies the writeback width semantics: 64-bit ops keep the
// value if its mathematical range provably fits int64 (saturated
// bounds mean a possible wrap), 32-bit ops keep it if it fits int32
// (the machine wraps and sign-extends otherwise).
func (ax *analysis) normWidth(v rval, w64 bool) rval {
	if v.k != rkVal {
		return v
	}
	fr := ax.fullRange(v)
	if w64 {
		if fr.Lo <= negInf || fr.Hi >= posInf {
			return mkTop(v.uni)
		}
		return v
	}
	if fr.Lo >= -1<<31 && fr.Hi <= 1<<31-1 {
		return v
	}
	return mkTop(v.uni)
}

func (ax *analysis) mulRV(a, b rval) rval {
	if c, ok := a.isConst(); ok {
		return scaleRV(b, c)
	}
	if c, ok := b.isConst(); ok {
		return scaleRV(a, c)
	}
	uni := a.uni && b.uni
	if a.k != rkVal || b.k != rkVal {
		return mkTop(uni)
	}
	return mkResid(ax.fullRange(a).Mul(ax.fullRange(b)), uni)
}

func (ax *analysis) transfer(st *state, in *isa.Instr) {
	predicated := in.Pred != isa.PT || in.PredNeg
	guardUni := false
	if predicated {
		guardUni = st.preds[in.Pred&7].uni
	}

	switch in.Op {
	case isa.SETP:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		pf := pfact{
			ok: true, uni: a.uni && b.uni, op: isa.CmpOp(in.Aux),
			xv: a, yv: b, xr: in.Src[0], yr: isa.RZ,
		}
		pf.xok = in.Src[0] != isa.RZ
		if !in.HasImm && in.Src[1] != isa.RZ {
			pf.yr, pf.yok = in.Src[1], true
		}
		if predicated {
			old := st.preds[in.Dst&7]
			pf = pfact{uni: old.uni && a.uni && b.uni && guardUni}
		}
		st.preds[in.Dst&7] = pf
		return

	case isa.FSETP:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		uni := a.uni && b.uni
		if predicated {
			uni = uni && guardUni && st.preds[in.Dst&7].uni
		}
		st.preds[in.Dst&7] = pfact{uni: uni}
		return

	case isa.NOP, isa.SSY, isa.SYNC, isa.BAR, isa.TRAP, isa.FREE,
		isa.STG, isa.STS, isa.STL:
		return
	}

	v, wrote := ax.eval(st, in)
	if !wrote || in.Dst == isa.RZ {
		return
	}
	if predicated {
		// Guard-false lanes keep the old value; a thread-dependent guard
		// makes the merged value per-thread.
		v = joinRV(v, ax.get(st, in.Dst), !guardUni)
	}
	setReg(st, in.Dst, v)
}

// eval computes the destination value of a register-writing
// instruction. It mirrors the cycle simulator's exec.go semantics.
func (ax *analysis) eval(st *state, in *isa.Instr) (rval, bool) {
	w64 := in.W64()
	switch in.Op {
	case isa.MOV:
		return ax.opv(st, in, 0), true

	case isa.IADD:
		v := addRV(ax.opv(st, in, 0), ax.opv(st, in, 1))
		return ax.normWidth(v, w64), true

	case isa.IADD3:
		v := addRV(addRV(ax.opv(st, in, 0), ax.opv(st, in, 1)), ax.opv(st, in, 2))
		return ax.normWidth(v, w64), true

	case isa.IMUL:
		v := ax.mulRV(ax.opv(st, in, 0), ax.opv(st, in, 1))
		return ax.normWidth(v, w64), true

	case isa.IMAD:
		v := addRV(ax.mulRV(ax.opv(st, in, 0), ax.opv(st, in, 1)), ax.opv(st, in, 2))
		return ax.normWidth(v, w64), true

	case isa.IMNMX:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		uni := a.uni && b.uni
		if a.k != rkVal || b.k != rkVal {
			return mkTop(uni), true
		}
		fa, fb := ax.fullRange(a), ax.fullRange(b)
		var iv bounds.Interval
		if in.IsMax() {
			iv = fa.Max(fb)
		} else {
			iv = fa.Min(fb)
		}
		return ax.normWidth(mkResid(iv, uni), w64), true

	case isa.SHL:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		s, ok := b.isConst()
		if !ok {
			return mkTop(a.uni && b.uni), true
		}
		if w64 {
			s &= 63
		} else {
			s &= 31
		}
		if w64 && s >= core.ExtentShift {
			// The LMI tag-injection idiom: an extent constant shifted into
			// the tag field. Tracked as extent material so the following
			// OR can treat it as address-neutral.
			return rval{k: rkExt, uni: a.uni, iv: ivTop(), m: 1}, true
		}
		if s >= 62 {
			return mkTop(a.uni), true
		}
		return ax.normWidth(scaleRV(a, int64(1)<<uint(s)), w64), true

	case isa.SHR:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		s, ok := b.isConst()
		if !ok || a.k != rkVal {
			return mkTop(a.uni && b.uni), true
		}
		fr := ax.fullRange(a)
		if fr.Lo < 0 {
			return mkTop(a.uni), true
		}
		if w64 {
			s &= 63
		} else {
			s &= 31
			if fr.Hi > 1<<31-1 {
				return mkTop(a.uni), true
			}
		}
		if s == 0 {
			return a, true
		}
		if fr.Hi >= posInf {
			return mkResid(bounds.Interval{Lo: 0, Hi: posInf}, a.uni), true
		}
		return mkResid(bounds.Interval{Lo: fr.Lo >> uint(s), Hi: fr.Hi >> uint(s)}, a.uni), true

	case isa.AND:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		if ca, ok := a.isConst(); ok {
			if cb, ok2 := b.isConst(); ok2 {
				return ax.normWidth(mkConst(ca&cb), w64), true
			}
		}
		if v, ok := ax.andMask(a, b); ok {
			return ax.normWidth(v, w64), true
		}
		if v, ok := ax.andMask(b, a); ok {
			return ax.normWidth(v, w64), true
		}
		uni := a.uni && b.uni
		if a.k == rkVal && b.k == rkVal {
			fa, fb := ax.fullRange(a), ax.fullRange(b)
			if fa.Lo >= 0 && fb.Lo >= 0 {
				hi := fa.Hi
				if fb.Hi < hi {
					hi = fb.Hi
				}
				return ax.normWidth(mkResid(bounds.Interval{Lo: 0, Hi: hi}, uni), w64), true
			}
		}
		return mkTop(uni), true

	case isa.OR:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		uni := a.uni && b.uni
		if w64 && a.k == rkExt && b.k != rkExt {
			// Attaching tag bits above the address field leaves the
			// canonical address unchanged; both threads of a pair attach
			// the same compile-time extent, so the high bits cancel in any
			// address difference.
			b.uni = uni
			return b, true
		}
		if w64 && b.k == rkExt && a.k != rkExt {
			a.uni = uni
			return a, true
		}
		if ca, ok := a.isConst(); ok {
			if cb, ok2 := b.isConst(); ok2 {
				return ax.normWidth(mkConst(ca|cb), w64), true
			}
		}
		if a.k == rkVal && b.k == rkVal {
			fa, fb := ax.fullRange(a), ax.fullRange(b)
			if fa.Lo >= 0 && fb.Lo >= 0 {
				lo := fa.Lo
				if fb.Lo > lo {
					lo = fb.Lo
				}
				return ax.normWidth(mkResid(bounds.Interval{Lo: lo, Hi: fa.Add(fb).Hi}, uni), w64), true
			}
		}
		return mkTop(uni), true

	case isa.XOR:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		if ca, ok := a.isConst(); ok {
			if cb, ok2 := b.isConst(); ok2 {
				return ax.normWidth(mkConst(ca^cb), w64), true
			}
		}
		return mkTop(a.uni && b.uni), true

	case isa.SEL:
		a, b := ax.opv(st, in, 0), ax.opv(st, in, 1)
		sel := in.Aux & 7
		if isa.PredReg(sel) == isa.PT {
			return a, true
		}
		pf := st.preds[sel]
		return joinRV(a, b, !pf.uni), true

	case isa.S2R:
		return ax.special(isa.SReg(in.Aux)), true

	case isa.LDC:
		return ax.ldc(st, in), true

	case isa.LDG, isa.LDS, isa.LDL, isa.ATOMG, isa.ATOMS, isa.MALLOC:
		return mkTop(false), in.Dst != isa.RZ

	case isa.FADD, isa.FMUL, isa.MUFU, isa.F2I, isa.I2F:
		a := ax.opv(st, in, 0)
		uni := a.uni
		if in.Op == isa.FADD || in.Op == isa.FMUL {
			uni = uni && ax.opv(st, in, 1).uni
		}
		return mkTop(uni), true

	case isa.FFMA:
		uni := ax.opv(st, in, 0).uni && ax.opv(st, in, 1).uni && ax.opv(st, in, 2).uni
		return mkTop(uni), true
	}
	return mkTop(false), false
}

// andMask handles AND with a constant non-negative mask m: when m+1 is
// a power of two and the other operand provably lies in [0, m], the
// AND is the identity (keeping affine structure and congruence);
// otherwise the result still lands in [0, m].
func (ax *analysis) andMask(a, mask rval) (rval, bool) {
	cb, ok := mask.isConst()
	if !ok || cb < 0 {
		return rval{}, false
	}
	uni := a.uni && mask.uni
	if (cb+1)&cb == 0 && a.k == rkVal {
		fr := ax.fullRange(a)
		if fr.Lo >= 0 && fr.Hi <= cb {
			a.uni = uni
			return a, true
		}
	}
	return mkResid(bounds.Interval{Lo: 0, Hi: cb}, uni), true
}

func (ax *analysis) special(sr isa.SReg) rval {
	switch sr {
	case isa.SRTidX:
		if ax.bx == 1 {
			return mkConst(0)
		}
		return rval{k: rkVal, uni: false, cx: 1, iv: ivSingle(0), m: 0, r: 0}
	case isa.SRTidY:
		if ax.by == 1 {
			return mkConst(0)
		}
		return rval{k: rkVal, uni: false, cy: 1, iv: ivSingle(0), m: 0, r: 0}
	case isa.SRNtidX:
		return mkConst(ax.bx)
	case isa.SRNtidY:
		return mkConst(ax.by)
	case isa.SRNctaidX:
		return mkConst(ax.gx)
	case isa.SRNctaidY:
		return mkConst(ax.gy)
	case isa.SRCtaidX:
		if ax.gx == 1 {
			return mkConst(0)
		}
		return mkSym(varCtaidX)
	case isa.SRCtaidY:
		if ax.gy == 1 {
			return mkConst(0)
		}
		return mkSym(varCtaidY)
	default: // lane id, warp id, SM id: per-thread
		return mkTop(false)
	}
}

func (ax *analysis) ldc(st *state, in *isa.Instr) rval {
	// Constant-bank reads are launch-uniform by construction.
	base, ok := ax.opv(st, in, 0).isConst()
	if !ok && in.Src[0] != isa.RZ {
		return mkTop(true)
	}
	off := int(base) + int(int64(in.Imm))
	if off == ax.p.StackPtrConst {
		return mkTop(true)
	}
	if off >= ax.p.ParamBase && (off-ax.p.ParamBase)%8 == 0 {
		idx := (off - ax.p.ParamBase) / 8
		if idx < ax.p.NumParams {
			if idx < len(ax.p.ParamPtrs) && ax.p.ParamPtrs[idx] {
				return mkTop(true)
			}
			return mkSym(varParam0 + int32(idx))
		}
	}
	return mkTop(true)
}

// --- edge refinement ---

func negCmp(op isa.CmpOp) isa.CmpOp {
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

// swapCmp rewrites (x op y) as (y op' x).
func swapCmp(op isa.CmpOp) isa.CmpOp {
	switch op {
	case isa.CmpLT:
		return isa.CmpGT
	case isa.CmpLE:
		return isa.CmpGE
	case isa.CmpGT:
		return isa.CmpLT
	case isa.CmpGE:
		return isa.CmpLE
	default:
		return op
	}
}

func cmpConstHolds(op isa.CmpOp, d int64) bool {
	switch op {
	case isa.CmpLT:
		return d < 0
	case isa.CmpLE:
		return d <= 0
	case isa.CmpGT:
		return d > 0
	case isa.CmpGE:
		return d >= 0
	case isa.CmpEQ:
		return d == 0
	default:
		return d != 0
	}
}

// refineGuard sharpens st along an edge where predicate register pr is
// known to hold bit value bit. Returns false when the edge is provably
// infeasible.
func (ax *analysis) refineGuard(st *state, pr isa.PredReg, bit bool) bool {
	pf := st.preds[pr&7]
	if !pf.ok {
		return true
	}
	op := pf.op
	if !bit {
		op = negCmp(op)
	}
	d := subRV(pf.xv, pf.yv)
	if d.k == rkVal && !d.hasAffine() && d.iv.IsConst() {
		return cmpConstHolds(op, d.iv.Lo)
	}
	// Path constraint over tids and symbols, from the snapshot values.
	for _, c := range conFromCmp(d, op) {
		st.cons = addCon(st.cons, c)
	}
	// Residual-interval tightening of the operand registers that still
	// hold the compared values.
	if pf.xok && pf.xr != isa.RZ {
		if !ax.tighten(st, pf.xr, op, pf.yv) {
			return false
		}
	}
	if pf.yok && pf.yr != isa.RZ {
		if !ax.tighten(st, pf.yr, swapCmp(op), pf.xv) {
			return false
		}
	}
	return true
}

// conFromCmp extracts linear constraints from d = x - y under (x op y),
// bounding the affine part of d by its residual extremes.
func conFromCmp(d rval, op isa.CmpOp) []lincon {
	if d.k != rkVal || !d.hasAffine() {
		return nil
	}
	ts := make([]term, 0, len(d.terms)+2)
	if d.cx != 0 {
		ts = append(ts, term{v: varTidX, coef: d.cx})
	}
	if d.cy != 0 {
		ts = append(ts, term{v: varTidY, coef: d.cy})
	}
	ts = append(ts, d.terms...)
	neg := func() []term {
		out := make([]term, len(ts))
		for i, t := range ts {
			c, ok := ckMul(t.coef, -1)
			if !ok {
				return nil
			}
			out[i] = term{v: t.v, coef: c}
		}
		return out
	}
	var out []lincon
	upper := func(adj int64) { // aff <= -adj - d.iv.Lo
		if d.iv.Lo > negInf {
			if c, ok := ckAdd(-adj, -d.iv.Lo); ok {
				out = append(out, lincon{ts: ts, c: c})
			}
		}
	}
	lower := func(adj int64) { // -aff <= d.iv.Hi - adj
		if d.iv.Hi < posInf {
			if nts := neg(); nts != nil {
				if c, ok := ckAdd(d.iv.Hi, -adj); ok {
					out = append(out, lincon{ts: nts, c: c})
				}
			}
		}
	}
	switch op {
	case isa.CmpLT:
		upper(1)
	case isa.CmpLE:
		upper(0)
	case isa.CmpGT:
		lower(1)
	case isa.CmpGE:
		lower(0)
	case isa.CmpEQ:
		upper(0)
		lower(0)
	}
	return out
}

// tighten clamps the residual interval of register r under (r op yv).
// Returns false when the edge is infeasible.
func (ax *analysis) tighten(st *state, r isa.Reg, op isa.CmpOp, yv rval) bool {
	v := st.regs[r]
	if v.k != rkVal {
		return true
	}
	fy := ax.fullRange(yv)
	affx := ax.affRange(v)
	lo, hi := int64(negInf), int64(posInf)
	switch op {
	case isa.CmpLT, isa.CmpLE, isa.CmpEQ:
		adj := int64(0)
		if op == isa.CmpLT {
			adj = 1
		}
		if fy.Hi < posInf && affx.Lo > negInf {
			if h, ok := ckAdd(fy.Hi, -adj); ok {
				if h2, ok2 := ckAdd(h, -affx.Lo); ok2 {
					hi = h2
				}
			}
		}
	}
	switch op {
	case isa.CmpGT, isa.CmpGE, isa.CmpEQ:
		adj := int64(0)
		if op == isa.CmpGT {
			adj = 1
		}
		if fy.Lo > negInf && affx.Hi < posInf {
			if l, ok := ckAdd(fy.Lo, adj); ok {
				if l2, ok2 := ckAdd(l, -affx.Hi); ok2 {
					lo = l2
				}
			}
		}
	}
	if lo == negInf && hi == posInf {
		return true
	}
	if !clampResid(&v, lo, hi) {
		return false
	}
	st.regs[r] = v
	return true
}

// clampResid intersects the residual interval of v with [lo, hi],
// maintaining the exactness invariant. Returns false when the
// intersection is empty (the path is infeasible).
func clampResid(v *rval, lo, hi int64) bool {
	if v.k != rkVal {
		return true
	}
	nlo, nhi := v.iv.Lo, v.iv.Hi
	if lo > nlo {
		nlo = lo
	}
	if hi < nhi {
		nhi = hi
	}
	if nlo > nhi {
		return false
	}
	if v.m == 0 {
		return true // exact residual already inside
	}
	v.iv = bounds.Interval{Lo: nlo, Hi: nhi}
	if v.iv.IsConst() {
		if v.m >= 2 && mod(v.iv.Lo, v.m) != v.r {
			return false
		}
		v.m, v.r = 0, v.iv.Lo
	}
	return true
}

// --- barrier phases ---

// oncePerPhase reports whether pc cannot re-execute within one barrier
// phase: every static cycle through pc crosses an unpredicated BAR.
func (ax *analysis) oncePerPhase(pc int) bool {
	if v, ok := ax.oncePhaseMemo[pc]; ok {
		return v
	}
	seen := make([]bool, len(ax.p.Instrs))
	for _, e := range ax.g.Succs(pc) {
		ax.g.PhaseReach(e.To, seen)
	}
	ax.oncePhaseMemo[pc] = !seen[pc]
	return !seen[pc]
}

// phaseRegions returns, for each phase source (program entry and every
// point just after a BAR), the set of PCs reachable without crossing
// an unpredicated BAR. Two accesses can race only if they share a
// region. Predicated BARs are conservatively non-cutting but still
// open a region (they may or may not fire).
func (ax *analysis) phaseRegions() [][]bool {
	n := len(ax.p.Instrs)
	var regions [][]bool
	for src := 0; src < n; src++ {
		if src > 0 && ax.p.Instrs[src-1].Op != isa.BAR {
			continue
		}
		seen := make([]bool, n)
		ax.g.PhaseReach(src, seen)
		regions = append(regions, seen)
	}
	return regions
}

// --- reporting ---

func (ax *analysis) addDiag(d Diag) {
	if ax.src != nil {
		if d.PC >= 0 && d.PC < len(ax.src) {
			d.Loc = ax.src[d.PC]
		}
		if d.OtherPC >= 0 && d.OtherPC < len(ax.src) {
			d.OtherLoc = ax.src[d.OtherPC]
		}
	}
	k := diagKey{kind: d.Kind, race: d.Race, pc: d.PC, opc: d.OtherPC}
	if _, ok := ax.diags[k]; !ok {
		ax.diags[k] = d
	}
}

func classifyPair(a, b sim.RaceAccessKind) sim.RaceKind {
	if a == sim.RaceRead || b == sim.RaceRead {
		return sim.RaceRW
	}
	if a == sim.RaceAtomic || b == sim.RaceAtomic {
		return sim.RaceAW
	}
	return sim.RaceWW
}

func accKindOf(op isa.Opcode) sim.RaceAccessKind {
	switch op {
	case isa.ATOMS:
		return sim.RaceAtomic
	case isa.STS:
		return sim.RaceWrite
	default:
		return sim.RaceRead
	}
}

func (ax *analysis) report() *Result {
	res := &Result{Converged: ax.converged}
	if !ax.converged {
		ax.addDiag(Diag{Kind: KindNoConverge, PC: -1, OtherPC: -1,
			Msg: "analysis did not converge within budget"})
	}

	if ax.converged {
		ax.divergenceDiags()
		ax.raceDiags()
	}

	for _, d := range ax.diags {
		res.Diags = append(res.Diags, d)
	}
	sort.Slice(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.OtherPC != b.OtherPC {
			return a.OtherPC < b.OtherPC
		}
		return a.Kind < b.Kind
	})
	res.SharedAccesses = ax.sharedAccesses
	res.PairsTested = ax.pairsTested
	res.Phases = ax.phases
	return res
}

func (ax *analysis) divergenceDiags() {
	for pc := range ax.p.Instrs {
		in := &ax.p.Instrs[pc]
		if in.Op != isa.BAR {
			continue
		}
		st := ax.fx.Kept(pc)
		if st == nil {
			continue
		}
		if dv := removeDiv(st.div, int32(pc)); len(dv) > 0 {
			ax.addDiag(Diag{Kind: KindBarrierDivergence, PC: pc, OtherPC: -1,
				Msg: fmt.Sprintf("pc %d: %s reachable inside an unreconverged thread-dependent branch", pc, in)})
		}
		if in.Pred != isa.PT && !st.preds[in.Pred&7].uni {
			ax.addDiag(Diag{Kind: KindBarrierDivergence, PC: pc, OtherPC: -1,
				Msg: fmt.Sprintf("pc %d: %s guarded by a thread-dependent predicate", pc, in)})
		}
	}
}

func (ax *analysis) raceDiags() {
	regions := ax.phaseRegions()
	ax.phases = len(regions)

	var accs []*access
	for pc := range ax.p.Instrs {
		in := &ax.p.Instrs[pc]
		switch in.Op {
		case isa.LDS, isa.STS, isa.ATOMS:
		default:
			continue
		}
		st := ax.fx.Kept(pc)
		if st == nil {
			continue
		}
		ax.sharedAccesses++
		addr := addRV(ax.get(st, in.Src[0]), mkConst(int64(in.Imm)))
		a := &access{
			pc:   pc,
			kind: accKindOf(in.Op),
			size: int64(in.AccSize()),
			rv:   addr,
			cons: append([]lincon(nil), st.cons...),
		}
		if in.Pred != isa.PT {
			pf := st.preds[in.Pred&7]
			if pf.ok {
				op := pf.op
				if in.PredNeg {
					op = negCmp(op)
				}
				for _, c := range conFromCmp(subRV(pf.xv, pf.yv), op) {
					a.cons = addCon(a.cons, c)
				}
			}
		}
		if addr.k != rkVal {
			ax.addDiag(Diag{Kind: KindUnknownAddress, PC: pc, OtherPC: -1,
				Msg: fmt.Sprintf("pc %d: %s: shared address not statically expressible", pc, in)})
			continue
		}
		for ri, rg := range regions {
			if rg[pc] {
				a.regions = append(a.regions, ri)
			}
		}
		accs = append(accs, a)
	}

	shareRegion := func(a, b *access) bool {
		for _, ra := range a.regions {
			for _, rb := range b.regions {
				if ra == rb {
					return true
				}
			}
		}
		return false
	}

	for i := 0; i < len(accs); i++ {
		for j := i; j < len(accs); j++ {
			a, b := accs[i], accs[j]
			if a.kind == sim.RaceRead && b.kind == sim.RaceRead {
				continue
			}
			if a.kind == sim.RaceAtomic && b.kind == sim.RaceAtomic {
				continue // atomic adds commute
			}
			if !shareRegion(a, b) {
				continue
			}
			ax.pairsTested++
			if ax.overlapPossible(a, b) {
				rk := classifyPair(a.kind, b.kind)
				ax.addDiag(Diag{Kind: KindRace, Race: rk, PC: a.pc, OtherPC: b.pc,
					Msg: fmt.Sprintf("possible %s race: pc %d %s vs pc %d %s",
						rk, a.pc, &ax.p.Instrs[a.pc], b.pc, &ax.p.Instrs[b.pc])})
			}
		}
	}
}
