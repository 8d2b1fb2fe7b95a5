package isa

import "math/bits"

// Edge is one control-flow edge out of an instruction.
type Edge struct {
	// To is the successor's instruction index.
	To int
	// Taken marks a BRA's branch-target edge, followed by the lanes
	// whose guard holds. Every other edge is the fall-through to the
	// next instruction; out of a BRA or a predicated EXIT it is followed
	// by the lanes whose guard fails.
	Taken bool
}

// Block is one basic block: the instructions [Start, End).
type Block struct {
	Start, End int
}

// CFG is the control-flow graph of a program: the one definition of
// successors that every microcode analysis and the compiled tier share.
// The successor rules mirror the simulators:
//
//   - BRA has a taken edge to its target, except under @!PT (never
//     taken), and falls through, except under @PT (always taken);
//   - an unpredicated EXIT has no successor; a predicated EXIT retires
//     only its guard-true lanes, so it falls through;
//   - SSY only records a reconvergence point for the next divergent
//     branch, so it adds no edge beyond its fall-through;
//   - every other instruction falls through;
//   - an edge leaving the program (a BRA to len(Instrs), the
//     fall-through of the last instruction) is dropped.
//
// PT is hardwired true (Validate rejects writes to it), so the guards
// @PT and @!PT are decided statically.
type CFG struct {
	instrs []Instr
	succs  [][]Edge
	preds  [][]int
	target []bool
}

// always reports an unconditional (@PT) guard.
func always(in *Instr) bool { return in.Pred == PT && !in.PredNeg }

// NewCFG builds the control-flow graph of p.
func NewCFG(p *Program) *CFG {
	n := len(p.Instrs)
	g := &CFG{
		instrs: p.Instrs,
		succs:  make([][]Edge, n),
		preds:  make([][]int, n),
		target: make([]bool, n),
	}
	// At most two edges leave an instruction, so the shared backing
	// array never reallocates under the per-instruction subslices.
	edges := make([]Edge, 0, 2*n)
	inRange := func(pc int) bool { return pc >= 0 && pc < n }
	add := func(e Edge) {
		if inRange(e.To) {
			edges = append(edges, e)
		}
	}
	indeg := make([]int, n)
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		start := len(edges)
		switch in.Op {
		case BRA:
			if in.Pred != PT || !in.PredNeg {
				add(Edge{To: int(in.Target), Taken: true})
			}
			if !always(in) {
				add(Edge{To: pc + 1})
			}
		case EXIT:
			if !always(in) {
				add(Edge{To: pc + 1})
			}
		default:
			add(Edge{To: pc + 1})
		}
		if in.Op == SSY && inRange(int(in.Target)) {
			g.target[in.Target] = true
		}
		g.succs[pc] = edges[start:len(edges):len(edges)]
		for _, e := range g.succs[pc] {
			indeg[e.To]++
			if e.Taken {
				g.target[e.To] = true
			}
		}
	}
	flat := make([]int, len(edges))
	off := 0
	for pc, d := range indeg {
		g.preds[pc] = flat[off : off : off+d]
		off += d
	}
	for pc, out := range g.succs {
		for _, e := range out {
			g.preds[e.To] = append(g.preds[e.To], pc)
		}
	}
	return g
}

// Succs returns the edges out of pc, the taken edge first. The slice
// is shared; callers must not modify it.
func (g *CFG) Succs(pc int) []Edge { return g.succs[pc] }

// Preds returns the instructions with an edge into pc, in ascending
// order (a predicated BRA whose target is its own fall-through appears
// twice). The slice is shared; callers must not modify it.
func (g *CFG) Preds(pc int) []int { return g.preds[pc] }

// InDegree returns the number of edges into pc, counting the implicit
// entry edge into instruction 0.
func (g *CFG) InDegree(pc int) int {
	d := len(g.preds[pc])
	if pc == 0 {
		d++
	}
	return d
}

// Target reports whether control can enter pc other than by falling
// through from pc-1: pc is the target of a taken edge, or an SSY
// reconvergence point the SIMT stack pops back to.
func (g *CFG) Target(pc int) bool { return g.target[pc] }

// Reconv returns the reconvergence point of the BRA at pc — the target
// of the SSY immediately before it, where the two sides of a divergent
// branch rejoin — or -1 when no SSY precedes it.
func (g *CFG) Reconv(pc int) int {
	if pc > 0 && g.instrs[pc-1].Op == SSY {
		return int(g.instrs[pc-1].Target)
	}
	return -1
}

// Blocks returns the basic blocks in program order. A block starts at
// instruction 0, at every Target, and after every BRA, EXIT and BAR, so
// each block ends either with one of those or just before a Target.
func (g *CFG) Blocks() []Block {
	var out []Block
	start := 0
	for pc := range g.instrs {
		end := pc + 1
		switch g.instrs[pc].Op {
		case BRA, EXIT, BAR:
		default:
			if end < len(g.instrs) && !g.target[end] {
				continue
			}
		}
		out = append(out, Block{Start: start, End: end})
		start = end
	}
	return out
}

// Reach marks in seen every instruction reachable from pc, pc included.
// The walk does not pass through an instruction seen already marks, so
// a caller can pre-mark instructions to exclude the paths through them.
func (g *CFG) Reach(pc int, seen []bool) { g.walk(pc, seen, false) }

// PhaseReach is Reach within one barrier phase: an unpredicated BAR
// ends the phase, so the walk marks it but not what follows it. A
// predicated BAR may not fire, so it does not cut.
func (g *CFG) PhaseReach(pc int, seen []bool) { g.walk(pc, seen, true) }

func (g *CFG) walk(pc int, seen []bool, phase bool) {
	stack := []int{pc}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[q] {
			continue
		}
		seen[q] = true
		if in := &g.instrs[q]; phase && in.Op == BAR && always(in) {
			continue
		}
		for _, e := range g.succs[q] {
			stack = append(stack, e.To)
		}
	}
}

// Worklist is the pending set of a forward fixpoint over instruction
// indices. Pop always returns the lowest pending index, so a pass
// sweeps the program in order and revisits a loop head only after the
// code above it has settled.
type Worklist struct {
	bits []uint64
	low  int // no pending index lies in a word below low
}

// NewWorklist returns an empty worklist over indices [0, n).
func NewWorklist(n int) *Worklist {
	return &Worklist{bits: make([]uint64, (n+63)/64)}
}

// Push marks pc pending.
func (w *Worklist) Push(pc int) {
	w.bits[pc>>6] |= 1 << uint(pc&63)
	if pc>>6 < w.low {
		w.low = pc >> 6
	}
}

// Remove unmarks pc.
func (w *Worklist) Remove(pc int) { w.bits[pc>>6] &^= 1 << uint(pc&63) }

// Pop removes and returns the lowest pending index; ok is false when
// nothing is pending.
func (w *Worklist) Pop() (pc int, ok bool) {
	for ; w.low < len(w.bits); w.low++ {
		if b := w.bits[w.low]; b != 0 {
			i := bits.TrailingZeros64(b)
			w.bits[w.low] = b &^ (1 << uint(i))
			return w.low<<6 | i, true
		}
	}
	return 0, false
}

// Rewrite builds a new instruction stream from instrs: emit appends to
// out the zero or more instructions that replace instrs[i] and returns
// it. Every BRA and SSY target in the result is then remapped to land
// on the first instruction emitted for its original index, or, when
// that index emitted none, on the next instruction emitted after it.
func Rewrite(instrs []Instr, emit func(out []Instr, i int) []Instr) []Instr {
	newIdx := make([]int32, len(instrs)+1)
	out := make([]Instr, 0, len(instrs))
	for i := range instrs {
		newIdx[i] = int32(len(out))
		out = emit(out, i)
	}
	newIdx[len(instrs)] = int32(len(out))
	for i := range out {
		if out[i].Op == BRA || out[i].Op == SSY {
			out[i].Target = newIdx[out[i].Target]
		}
	}
	return out
}
