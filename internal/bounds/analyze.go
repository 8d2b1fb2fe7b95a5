package bounds

import (
	"fmt"

	"lmi/internal/ir"
	"lmi/internal/isa"
)

// widenDelay is the number of joins a block entry absorbs before
// widening kicks in: enough for short chains of guards to stabilise
// precisely, small enough to bound fixpoint work on loops.
const widenDelay = 4

// numv is the numeric half of an abstract value: a concrete interval
// plus an optional symbolic upper bound in the contract's count n.
type numv struct {
	iv  Interval
	sym SymUB
}

func topNum() numv          { return numv{iv: top()} }
func constNum(c int64) numv { return numv{iv: single(c), sym: symConst(c)} }

func (v numv) equal(o numv) bool { return v.iv == o.iv && v.sym.equal(o.sym) }

// aval is one abstract value: either a tracked pointer (ptr set) into
// allocation site site at byte offset num, or the number num. An
// untracked pointer is simply the numeric top. A value is a plain value,
// so copying a state copies it; every read of num as a number first
// checks ptr.
type aval struct {
	num  numv
	site int32
	ptr  bool
}

func topVal() aval { return aval{num: topNum()} }

// ptrVal is a pointer into site at byte offset off.
func ptrVal(site int, off numv) aval { return aval{num: off, site: int32(site), ptr: true} }

func (a aval) equal(b aval) bool {
	return a.ptr == b.ptr && (!a.ptr || a.site == b.site) && a.num.equal(b.num)
}

// siteKind classifies an allocation site.
type siteKind uint8

const (
	siteParam siteKind = iota
	siteAlloca
	siteShared
	siteHeap
)

// site is one allocation the analysis knows the size of. bytes is the
// requested (pre-rounding) size — proofs against it are valid no matter
// how the allocator rounds, because rounding only grows the reservation.
// For scaled sites (pointer parameters) the guaranteed size is
// perCount*n for every valid n instead; bytes < 0 means unknown.
type site struct {
	kind     siteKind
	param    int
	name     string
	bytes    int64
	scaled   bool
	perCount int64
}

// cmpFact is a comparison whose boolean result may feed a conditional
// branch in the same block.
type cmpFact struct {
	op   isa.CmpOp
	x, y ir.Value
}

// edge is a successor block plus the abstract state flowing to it.
type edge struct {
	to ir.BlockID
	st []aval
}

type analysis struct {
	f *ir.Func
	c Contract

	sites  []site
	siteAt map[accessKey]int // (block, index) of the allocating instruction

	entry   [][]aval
	visited []bool
	joins   []int

	// cur and then are the scratch states a block walk runs in: cur from
	// the block's entry state, then the copy a conditional branch refines
	// for its taken edge. cmps and edges are the walk's reused scratch.
	cur, then []aval
	cmps      map[ir.Value]cmpFact
	edges     [2]edge
}

// Analyze runs the value-range analysis on a verified kernel under the
// given launch contract and classifies every global/local memory access.
func Analyze(f *ir.Func, c Contract) (*Result, error) {
	if err := c.Validate(f); err != nil {
		return nil, err
	}
	if err := ir.Verify(f); err != nil {
		return nil, err
	}
	n := len(f.Blocks)
	an := &analysis{
		f:       f,
		c:       c,
		siteAt:  map[accessKey]int{},
		entry:   make([][]aval, n),
		visited: make([]bool, n),
		joins:   make([]int, n),
		cur:     make([]aval, f.NumValues()),
		then:    make([]aval, f.NumValues()),
		cmps:    map[ir.Value]cmpFact{},
	}

	// Fixpoint over the CFG.
	an.entry[0] = an.topState()
	an.visited[0] = true
	work := []ir.BlockID{0}
	inWork := make([]bool, n)
	inWork[0] = true
	budget := 64*n + 1024
	complete := true
	for len(work) > 0 {
		if budget--; budget < 0 {
			complete = false // should not happen: widening bounds growth
			break
		}
		b := work[0]
		work = work[1:]
		inWork[b] = false
		copy(an.cur, an.entry[b])
		for _, e := range an.runBlock(f.Blocks[b], an.cur, nil) {
			if an.mergeInto(b, e.to, e.st) && !inWork[e.to] {
				work = append(work, e.to)
				inWork[e.to] = true
			}
		}
	}

	// Report pass: re-walk every reachable block from its fixpoint entry
	// state and classify each checkable access.
	res := &Result{Func: f.Name, proven: map[accessKey]bool{}}
	for _, blk := range f.Blocks {
		if !an.visited[blk.ID] {
			continue // unreachable: no access here ever executes
		}
		copy(an.cur, an.entry[blk.ID])
		an.runBlock(blk, an.cur, func(in *ir.Instr, idx int, cur []aval) {
			av := an.classify(in, cur)
			if av == nil {
				return
			}
			if !complete && av.Verdict != VerdictUnknown {
				av.Verdict, av.Detail = VerdictUnknown, "analysis budget exhausted"
			}
			res.Accesses = append(res.Accesses, AccessVerdict{
				Block: blk.ID, Index: idx,
				Space: av.Space, Size: av.Size, Store: av.Store,
				Verdict: av.Verdict, Detail: av.Detail,
			})
			if av.Verdict == VerdictProven {
				res.proven[accessKey{blk.ID, idx}] = true
			}
		})
	}
	return res, nil
}

func (an *analysis) topState() []aval {
	st := make([]aval, an.f.NumValues())
	for i := range st {
		st[i] = topVal()
	}
	return st
}

// mergeInto joins st into to's entry state in place and reports whether
// the entry changed.
func (an *analysis) mergeInto(from, to ir.BlockID, st []aval) bool {
	if !an.visited[to] {
		an.entry[to] = append([]aval(nil), st...)
		an.visited[to] = true
		return true
	}
	// Widening accelerates only loop heads. The builder allocates blocks
	// in program order, so every cycle closes through a merge from a
	// higher (or equal) block ID — widening there is enough to terminate,
	// and forward-edge merges (the branch-refined loop body entry) keep
	// their precision. Widening a value the join left unchanged leaves it
	// unchanged, so an entry that does not move is written back as is.
	widen := from >= to && an.joins[to] >= widenDelay
	entry := an.entry[to]
	changed := false
	for i, old := range entry {
		j := joinVal(old, st[i])
		if !j.equal(old) {
			changed = true
		}
		if widen {
			j = widenVal(old, j)
		}
		entry[i] = j
	}
	if changed && from >= to {
		an.joins[to]++
	}
	return changed
}

func joinNum(a, b numv) numv {
	return numv{iv: a.iv.Join(b.iv), sym: a.sym.join(b.sym)}
}

func joinVal(a, b aval) aval {
	if a.ptr && b.ptr && a.site == b.site {
		return aval{num: joinNum(a.num, b.num), site: a.site, ptr: true}
	}
	if a.ptr || b.ptr {
		return topVal() // pointer merged with non-pointer or another site
	}
	return aval{num: joinNum(a.num, b.num)}
}

// widenVal widens joined against old when both are numbers, or pointers
// into the same site; otherwise joined stands.
func widenVal(old, joined aval) aval {
	if old.ptr != joined.ptr || (joined.ptr && old.site != joined.site) {
		return joined
	}
	joined.num = widenNum(old.num, joined.num)
	return joined
}

// widenNum widens moving interval bounds to infinity and keeps a
// symbolic bound only when it has stabilised — a still-growing constant
// term (a loop counter's C rising by one per round) would otherwise
// defeat termination.
func widenNum(old, joined numv) numv {
	w := numv{iv: joined.iv.widenFrom(old.iv)}
	if joined.sym.equal(old.sym) {
		w.sym = joined.sym
	}
	return w
}

// symOrConst returns the best symbolic upper bound derivable for a
// value: its tracked affine bound, or its constant interval ceiling.
func symOrConst(v aval) SymUB {
	if v.ptr {
		return SymUB{}
	}
	if v.num.sym.valid() {
		return v.num.sym
	}
	if v.num.iv.Hi != posInf {
		return symConst(v.num.iv.Hi)
	}
	return SymUB{}
}

func constOf(v aval) (int64, bool) {
	if !v.ptr && v.num.iv.IsConst() {
		return v.num.iv.Lo, true
	}
	return 0, false
}

// runBlock interprets one block from the given entry state, returning
// the successor edges (with branch refinement applied). When collect is
// non-nil it is invoked at each memory access with the state in force
// just before the access.
func (an *analysis) runBlock(blk *ir.Block, st []aval, collect func(*ir.Instr, int, []aval)) []edge {
	cmps := an.cmps
	clear(cmps)
	kill := func(v ir.Value) {
		delete(cmps, v)
		for b, c := range cmps {
			if c.x == v || c.y == v {
				delete(cmps, b)
			}
		}
	}
	for idx := range blk.Instrs {
		in := &blk.Instrs[idx]
		switch in.Op {
		case ir.OpBr:
			an.edges[0] = edge{to: in.Target, st: st}
			return an.edges[:1]
		case ir.OpCondBr:
			thenSt := an.then
			copy(thenSt, st)
			elseSt := st
			if c, ok := cmps[in.Args[0]]; ok {
				an.refine(thenSt, c, true)
				an.refine(elseSt, c, false)
			}
			an.edges[0] = edge{to: in.Then, st: thenSt}
			an.edges[1] = edge{to: in.Else, st: elseSt}
			return an.edges[:]
		case ir.OpRet:
			return nil
		}
		if collect != nil && (in.Op == ir.OpLoad || in.Op == ir.OpStore || in.Op == ir.OpAtomicAdd) {
			collect(in, idx, st)
		}
		if in.Op == ir.OpICmp {
			cmps[in.Dst] = cmpFact{op: in.Cmp, x: in.Args[0], y: in.Args[1]}
			continue
		}
		if in.Dst != ir.NoValue {
			kill(in.Dst)
			st[in.Dst] = an.eval(in, st, accessKey{blk.ID, idx})
		}
		switch in.Op {
		case ir.OpFree, ir.OpInvalidate:
			// The pointee's extent dies here: later accesses through this
			// value — or through any alias carrying the same allocation-site
			// fact (an OpCopy/OpGEP derivative) — are temporal violations
			// and must never be elided. When the freed value's provenance is
			// unknown, the free could target any heap site, so every
			// heap-site fact dies.
			freed := st[in.Args[0]]
			for v, p := range st {
				if !p.ptr {
					continue
				}
				if freed.ptr {
					if p.site != freed.site {
						continue
					}
				} else if an.sites[p.site].kind != siteHeap {
					continue
				}
				kill(ir.Value(v))
				st[v] = topVal()
			}
			kill(in.Args[0])
			st[in.Args[0]] = topVal()
		}
	}
	return nil
}

// eval computes the abstract value an instruction writes to its Dst.
func (an *analysis) eval(in *ir.Instr, st []aval, at accessKey) aval {
	t := an.f.TypeOf(in.Dst)
	switch in.Op {
	case ir.OpConstI:
		return aval{num: constNum(in.Imm)}
	case ir.OpParam:
		return an.paramVal(in.Index, t)
	case ir.OpSpecial:
		return aval{num: an.specialVal(in.SReg)}
	case ir.OpCopy:
		return st[in.Args[0]]
	case ir.OpSelect:
		return joinVal(st[in.Args[1]], st[in.Args[2]])
	case ir.OpAdd:
		return an.clampTo(addVals(st[in.Args[0]], st[in.Args[1]]), t)
	case ir.OpSub:
		return an.clampTo(subVals(st[in.Args[0]], st[in.Args[1]]), t)
	case ir.OpMul:
		return an.clampTo(aval{num: mulNum(st[in.Args[0]], st[in.Args[1]])}, t)
	case ir.OpMin:
		return an.clampTo(aval{num: minNum(st[in.Args[0]], st[in.Args[1]])}, t)
	case ir.OpMax:
		return an.clampTo(aval{num: maxNum(st[in.Args[0]], st[in.Args[1]])}, t)
	case ir.OpShl:
		if k, ok := constOf(st[in.Args[1]]); ok && k >= 0 && k < 63 {
			return an.clampTo(aval{num: mulNum(st[in.Args[0]], aval{num: constNum(int64(1) << uint(k))})}, t)
		}
		return an.typedTop(t)
	case ir.OpShr:
		return an.clampTo(aval{num: shrNum(st[in.Args[0]], st[in.Args[1]])}, t)
	case ir.OpAnd:
		return an.clampTo(aval{num: andNum(st[in.Args[0]], st[in.Args[1]])}, t)
	case ir.OpOr, ir.OpXor:
		return an.clampTo(aval{num: orNum(st[in.Args[0]], st[in.Args[1]])}, t)
	case ir.OpGEP:
		return an.gepVal(in, st)
	case ir.OpAlloca:
		return ptrVal(an.siteFor(at, siteAlloca, int64(in.Size)), constNum(0))
	case ir.OpShared:
		return ptrVal(an.siteFor(at, siteShared, int64(in.Size)), constNum(0))
	case ir.OpMalloc:
		sz := int64(-1)
		if c, ok := constOf(st[in.Args[0]]); ok && c >= 0 {
			sz = c
		}
		return ptrVal(an.siteFor(at, siteHeap, sz), constNum(0))
	default:
		return an.typedTop(t)
	}
}

func (an *analysis) typedTop(t ir.Type) aval {
	if t.Kind == ir.KindI32 {
		return aval{num: numv{iv: topI32()}}
	}
	return topVal()
}

// clampTo accounts for 32-bit wrap-around on i32-typed results: if the
// ideal value provably fits in int32 the machine value equals it (the
// register file sign-extends), otherwise it may have wrapped and all
// derived facts are dropped.
func (an *analysis) clampTo(v aval, t ir.Type) aval {
	if v.ptr || t.Kind != ir.KindI32 {
		return v
	}
	if cl := v.num.iv.clampI32(); cl != v.num.iv {
		return aval{num: numv{iv: cl}}
	}
	return v
}

func (an *analysis) paramVal(index int, t ir.Type) aval {
	if t.IsPtr() {
		if an.c.CountParam >= 0 && an.c.PtrBytesPerCount > 0 {
			return ptrVal(an.siteForParam(index), constNum(0))
		}
		return topVal()
	}
	if index == an.c.CountParam {
		return aval{num: numv{
			iv:  Interval{an.c.CountMin, an.c.CountMax},
			sym: symN(),
		}}
	}
	return an.typedTop(t)
}

func (an *analysis) specialVal(sr isa.SReg) numv {
	c := an.c
	bounded := func(hi int64) numv {
		return numv{iv: Interval{0, hi - 1}, sym: symConst(hi - 1)}
	}
	switch sr {
	case isa.SRTidX:
		return bounded(c.BlockDimX)
	case isa.SRCtaidX:
		return bounded(c.GridDimX)
	case isa.SRNtidX:
		return numv{iv: single(c.BlockDimX), sym: symConst(c.BlockDimX)}
	case isa.SRNctaidX:
		return numv{iv: single(c.GridDimX), sym: symConst(c.GridDimX)}
	case isa.SRTidY:
		return bounded(c.blockDimY())
	case isa.SRCtaidY:
		return bounded(c.gridDimY())
	case isa.SRNtidY:
		return numv{iv: single(c.blockDimY()), sym: symConst(c.blockDimY())}
	case isa.SRNctaidY:
		return numv{iv: single(c.gridDimY()), sym: symConst(c.gridDimY())}
	case isa.SRLaneID:
		return bounded(32)
	case isa.SRWarpID:
		return bounded((c.BlockDimX*c.blockDimY() + 31) / 32)
	default:
		return numv{iv: Interval{0, posInf}}
	}
}

func (an *analysis) siteFor(at accessKey, kind siteKind, bytes int64) int {
	if id, ok := an.siteAt[at]; ok {
		if an.sites[id].bytes != bytes {
			an.sites[id].bytes = -1 // size differs across visits: unknown
		}
		return id
	}
	id := len(an.sites)
	an.sites = append(an.sites, site{
		kind: kind, bytes: bytes,
		name: fmt.Sprintf("%s@b%d[%d]", kindName(kind), at.block, at.index),
	})
	an.siteAt[at] = id
	return id
}

func (an *analysis) siteForParam(index int) int {
	at := accessKey{block: -1, index: index}
	if id, ok := an.siteAt[at]; ok {
		return id
	}
	id := len(an.sites)
	perCount := an.c.PtrBytesPerCount
	an.sites = append(an.sites, site{
		kind: siteParam, param: index,
		name:     fmt.Sprintf("param#%d", index),
		bytes:    satMul(perCount, an.c.CountMin),
		scaled:   true,
		perCount: perCount,
	})
	an.siteAt[at] = id
	return id
}

func kindName(k siteKind) string {
	switch k {
	case siteAlloca:
		return "alloca"
	case siteShared:
		return "shared"
	case siteHeap:
		return "heap"
	default:
		return "param"
	}
}

// ---- numeric transfer functions -----------------------------------------

func addNum(a, b numv) numv {
	return numv{iv: a.iv.Add(b.iv), sym: a.sym.Add(b.sym)}
}

func addVals(a, b aval) aval {
	if a.ptr && b.ptr {
		return topVal()
	}
	if a.ptr {
		a.num = addNum2(a.num, b)
		return a
	}
	if b.ptr {
		b.num = addNum2(b.num, a)
		return b
	}
	return aval{num: numv{
		iv:  a.num.iv.Add(b.num.iv),
		sym: symOrConst(a).Add(symOrConst(b)),
	}}
}

// addNum2 adds a plain value to a byte offset.
func addNum2(off numv, b aval) numv {
	return numv{
		iv:  off.iv.Add(b.num.iv),
		sym: numSym(off).Add(symOrConst(b)),
	}
}

func numSym(v numv) SymUB {
	if v.sym.valid() {
		return v.sym
	}
	if v.iv.Hi != posInf {
		return symConst(v.iv.Hi)
	}
	return SymUB{}
}

func subVals(a, b aval) aval {
	if b.ptr {
		return topVal()
	}
	if a.ptr {
		a.num = subNum(a.num, b.num)
		return a
	}
	return aval{num: subNum2(a, b)}
}

func subNum(a, b numv) numv {
	r := numv{iv: a.iv.Sub(b.iv)}
	// ub(a-b) = ub(a) - lb(b), valid only with a finite lower bound on b.
	if s := numSym(a); s.valid() && b.iv.Lo != negInf {
		r.sym = s.AddConst(satNeg(b.iv.Lo))
	}
	return r
}

func subNum2(a, b aval) numv {
	r := numv{iv: a.num.iv.Sub(b.num.iv)}
	if s := symOrConst(a); s.valid() && b.num.iv.Lo != negInf {
		r.sym = s.AddConst(satNeg(b.num.iv.Lo))
	}
	return r
}

func mulNum(a, b aval) numv {
	if a.ptr || b.ptr {
		return topNum()
	}
	r := numv{iv: a.num.iv.Mul(b.num.iv)}
	if c, ok := constOf(b); ok && c >= 0 {
		r.sym = symOrConst(a).MulConst(c)
	} else if c, ok := constOf(a); ok && c >= 0 {
		r.sym = symOrConst(b).MulConst(c)
	}
	return r
}

func minNum(a, b aval) numv {
	if a.ptr || b.ptr {
		return topNum()
	}
	r := numv{iv: a.num.iv.Min(b.num.iv)}
	// min(x, y) <= y (and <= x): either bound is valid; prefer the one
	// that scales with n, which is what guard patterns clamp against.
	sa, sb := symOrConst(a), symOrConst(b)
	switch {
	case sb.valid() && (sb.A > 0 || !sa.valid()):
		r.sym = sb
	case sa.valid():
		r.sym = sa
	}
	return r
}

func maxNum(a, b aval) numv {
	if a.ptr || b.ptr {
		return topNum()
	}
	return numv{
		iv:  a.num.iv.Max(b.num.iv),
		sym: symOrConst(a).join(symOrConst(b)),
	}
}

func shrNum(a, b aval) numv {
	k, ok := constOf(b)
	if !ok || k < 0 || k > 63 || a.ptr || a.num.iv.Lo < 0 {
		return topNum() // arithmetic shift of a possibly-negative value
	}
	hi := a.num.iv.Hi
	if hi != posInf {
		hi >>= uint(k)
	}
	return numv{
		iv:  Interval{a.num.iv.Lo >> uint(k), hi},
		sym: numSym(a.num).ShrConst(k),
	}
}

func andNum(a, b aval) numv {
	if a.ptr || b.ptr {
		return topNum()
	}
	aNN := a.num.iv.Lo >= 0
	bNN := b.num.iv.Lo >= 0
	if !aNN && !bNN {
		return topNum()
	}
	// x & m with a non-negative m clears the sign bit, so the result is
	// bounded by every non-negative operand: result in [0, min over
	// non-negative arms]. The symbolic bound prefers the arm that scales
	// with n — the idx & (n-1) guard pattern.
	r := numv{iv: Interval{0, posInf}}
	var sa, sb SymUB
	if aNN {
		r.iv.Hi = a.num.iv.Hi
		sa = symOrConst(a)
	}
	if bNN {
		r.iv.Hi = min(r.iv.Hi, b.num.iv.Hi)
		sb = symOrConst(b)
	}
	switch {
	case sb.valid() && (sb.A > 0 || !sa.valid()):
		r.sym = sb
	case sa.valid():
		r.sym = sa
	}
	return r
}

func orNum(a, b aval) numv {
	if a.ptr || b.ptr || a.num.iv.Lo < 0 || b.num.iv.Lo < 0 {
		return topNum()
	}
	// For non-negative x, y: x|y <= x+y and x^y <= x+y.
	return numv{
		iv:  Interval{0, satAdd(a.num.iv.Hi, b.num.iv.Hi)},
		sym: symOrConst(a).Add(symOrConst(b)),
	}
}

func (an *analysis) gepVal(in *ir.Instr, st []aval) aval {
	base := st[in.Args[0]]
	if !base.ptr {
		return topVal()
	}
	off := base.num
	if in.Args[1] != ir.NoValue {
		idx := st[in.Args[1]]
		if idx.ptr {
			return topVal()
		}
		scale := int64(in.Scale)
		if scale < 0 {
			return topVal()
		}
		prod := mulNum(idx, aval{num: constNum(scale)})
		off = addNum(numv{iv: off.iv, sym: numSym(off)}, numv{iv: prod.iv, sym: numSym(prod)})
	}
	base.num = numv{iv: off.iv.AddConst(in.Off), sym: numSym(off).AddConst(in.Off)}
	return base
}

// ---- branch refinement ---------------------------------------------------

func (an *analysis) refine(st []aval, c cmpFact, taken bool) {
	op := c.op
	if !taken {
		op = negateCmp(op)
	}
	x, y := c.x, c.y
	// Normalise GT/GE to LT/LE with swapped operands.
	switch op {
	case isa.CmpGT:
		op, x, y = isa.CmpLT, y, x
	case isa.CmpGE:
		op, x, y = isa.CmpLE, y, x
	}
	vx, vy := st[x], st[y]
	if vx.ptr || vy.ptr {
		return
	}
	switch op {
	case isa.CmpLT, isa.CmpLE:
		slack := int64(0)
		if op == isa.CmpLT {
			slack = 1
		}
		// x <= y - slack.
		if hi := satAdd(vy.num.iv.Hi, -slack); hi < vx.num.iv.Hi {
			vx.num.iv.Hi = hi
		}
		if !vx.num.sym.valid() {
			if s := symOrConst(vy); s.valid() {
				vx.num.sym = s.AddConst(-slack)
			}
		}
		// y >= x + slack.
		if lo := satAdd(vx.num.iv.Lo, slack); lo > vy.num.iv.Lo {
			vy.num.iv.Lo = lo
		}
	case isa.CmpEQ:
		lo := max(vx.num.iv.Lo, vy.num.iv.Lo)
		hi := min(vx.num.iv.Hi, vy.num.iv.Hi)
		if lo <= hi {
			vx.num.iv, vy.num.iv = Interval{lo, hi}, Interval{lo, hi}
		}
		if !vx.num.sym.valid() {
			vx.num.sym = symOrConst(vy)
		}
		if !vy.num.sym.valid() {
			vy.num.sym = symOrConst(vx)
		}
	default: // CmpNE carries no usable range fact
		return
	}
	st[x], st[y] = vx, vy
}

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

// ---- access classification ----------------------------------------------

// classify computes the verdict for a load/store, or nil if the access
// is not checkable (shared space, or float/void-typed oddities).
func (an *analysis) classify(in *ir.Instr, st []aval) *AccessVerdict {
	ptrT := an.f.TypeOf(in.Args[0])
	if !ptrT.IsPtr() {
		return nil
	}
	space := ptrT.Space
	if space != isa.SpaceGlobal && space != isa.SpaceLocal {
		return nil // LDS/STS and friends carry no extent check to elide
	}
	var size uint64
	store := in.Op == ir.OpStore || in.Op == ir.OpAtomicAdd
	if in.Op == ir.OpStore || in.Op == ir.OpAtomicAdd {
		// An atomic read-modify-write is a store for extent purposes: the
		// checked window is the operand's width, same as STG.
		size = an.f.TypeOf(in.Args[1]).Size()
	} else {
		size = an.f.TypeOf(in.Dst).Size()
	}
	av := &AccessVerdict{Space: space, Size: size, Store: store}
	base := st[in.Args[0]]
	if !base.ptr {
		av.Verdict, av.Detail = VerdictUnknown, "pointer provenance unknown"
		return av
	}
	s := an.sites[base.site]
	off := numv{
		iv:  base.num.iv.AddConst(in.Off),
		sym: numSym(base.num).AddConst(in.Off),
	}
	av.Verdict, av.Detail = an.judge(s, off, int64(size))
	return av
}

// judge decides whether [off, off+size) provably lies inside (or
// outside) the site's allocation for every contract-conforming launch.
func (an *analysis) judge(s site, off numv, size int64) (Verdict, string) {
	lo, hi := off.iv.Lo, off.iv.Hi

	// Proven out of bounds: the access window misses the allocation's
	// requested extent on every execution.
	if hi != posInf && satAdd(hi, size) <= 0 {
		return VerdictOOB, fmt.Sprintf("%s: access [%d, %d) entirely below the allocation base",
			s.name, lo, satAdd(hi, size))
	}
	// Past-the-end is only provable against a site whose requested extent
	// is exact. A scaled parameter site carries a *minimum* guarantee ("at
	// least perCount*n bytes") — the real buffer may be larger, so an
	// access past the guarantee stays VerdictUnknown and keeps its
	// runtime check instead of aborting a possibly-valid program.
	if !s.scaled && s.bytes >= 0 && lo != negInf && satAdd(lo, size) > s.bytes {
		return VerdictOOB, fmt.Sprintf("%s: access window ends past byte %d of the %d-byte allocation on every launch",
			s.name, satAdd(lo, size), s.bytes)
	}

	// Proven in bounds, concrete route: the window fits the guaranteed
	// minimum size.
	if lo < 0 || s.bytes < 0 {
		return VerdictUnknown, fmt.Sprintf("%s: offset in [%s, %s] not provably non-negative or size unknown",
			s.name, boundStr(lo), boundStr(hi))
	}
	if hi != posInf && satAdd(hi, size) <= s.bytes {
		return VerdictProven, fmt.Sprintf("%s: offset+size <= %d within %d guaranteed bytes",
			s.name, satAdd(hi, size), s.bytes)
	}

	// Symbolic route for contract-scaled parameter buffers: prove
	// (A*n+C)/D + size <= perCount*n for every n in [CountMin, CountMax],
	// i.e. C + D*size <= (D*perCount - A)*n at the adversarial end of the
	// count range.
	if s.scaled && off.sym.valid() {
		d, a, c := off.sym.D, off.sym.A, off.sym.C
		dp, ok1 := mulOK(d, s.perCount)
		ds, ok2 := mulOK(d, size)
		if ok1 && ok2 {
			coeff := dp - a // (D*perCount - A)
			nWorst := an.c.CountMin
			if coeff < 0 {
				nWorst = an.c.CountMax
			}
			if rhs, ok := mulOK(coeff, nWorst); ok {
				if lhs, ok := addOK(c, ds); ok && lhs <= rhs {
					return VerdictProven, fmt.Sprintf(
						"%s: offset <= (%d*n%+d)/%d, so offset+%d <= %d*n for every n in [%d, %d]",
						s.name, a, c, d, size, s.perCount, an.c.CountMin, an.c.CountMax)
				}
			}
		}
	}
	return VerdictUnknown, fmt.Sprintf("%s: offset in [%s, %s], %d guaranteed bytes",
		s.name, boundStr(lo), boundStr(hi), s.bytes)
}

func boundStr(b int64) string {
	switch b {
	case negInf:
		return "-inf"
	case posInf:
		return "+inf"
	default:
		return fmt.Sprintf("%d", b)
	}
}
