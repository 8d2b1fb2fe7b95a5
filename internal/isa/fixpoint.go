package isa

import "math/bits"

// Pass is one forward dataflow analysis a Fixpoint drives, over states
// S whose registers hold values V. The pass keeps its own domain,
// transfer, join and widening; the driver owns where states are kept,
// the order runs are walked in, and when a walk stops.
type Pass[S, V any] interface {
	// Bind hands st its register slots, RegWidth of them.
	Bind(st *S, regs []V)
	Copy(dst, src *S)
	// Step applies instruction pc's transfer to st in place.
	Step(pc int, st *S)
	// Edge returns the state flowing along e out of pc, given pc's
	// post-state st: st itself, a refinement of it in the pass's own
	// storage, or nil when e is dead. The driver asks about every edge
	// out of a run's last instruction before it joins any, and about
	// the fall-through of an EXIT inside a run.
	Edge(pc int, e Edge, st *S) *S
	// Join merges src, flowing from instruction from, into dst, the
	// entry of run head to, and reports whether dst changed. When fresh
	// the head is not reached yet: Join must overwrite dst.
	Join(from, to int, dst, src *S, fresh bool) bool
}

// Fixpoint is the forward fixpoint driver of the static passes. It
// keeps an entry state per run head (CFG.RunHead) and walks each run
// from its head's entry in one scratch state, popping the lowest
// pending head first; a head whose entry changes is pending again.
// DESIGN.md ("Static-audit state") argues why the run-head states are
// a sound post-fixpoint, and equal to the per-instruction fixpoint
// wherever the transfer is monotone.
//
// Set Pass, and Keep, Equal and Scratch as the pass needs them, then
// call Init before each analysis; Init reuses the previous storage.
type Fixpoint[S, V any] struct {
	Pass Pass[S, V]
	// Keep, when set, chooses the pcs whose in-states the walks keep
	// (Kept). A walk stops at a kept pc whose state Equal finds
	// unchanged since its run's last walk, with no Requeue between:
	// the rest of the run is then unchanged too.
	Keep  func(pc int) bool
	Equal func(a, b *S) bool
	// Scratch is the number of states the pass borrows (ScratchState).
	Scratch int

	g       *CFG
	head    []int32 // per pc: its entry's index, or -1 inside a run
	keep    []int32 // per pc: its kept state's index, or -1; empty without Keep
	states  []S     // entries, kept states, the walk state, the pass's scratch
	entries []S
	kept    []S
	st      *S
	scratch []S
	arena   []V
	live    []bool // per entry: the head is reached
	keptOK  []bool // per kept state: a walk passed it since the last Drop
	walked  []int  // per entry: the wave of the run's last walk
	wave    int
	work    worklist
	budget  int
}

// grow returns s resized to n, reusing its storage when it is large
// enough; the contents are not kept.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Init prepares f for an analysis of g: every head unreached, nothing
// kept, nothing pending.
func (f *Fixpoint[S, V]) Init(g *CFG) {
	n := len(g.instrs)
	f.g = g
	f.head = grow(f.head, n)
	heads := 0
	for pc := range n {
		f.head[pc] = -1
		if g.RunHead(pc) {
			f.head[pc] = int32(heads)
			heads++
		}
	}
	kept := 0
	f.keep = f.keep[:0]
	if f.Keep != nil {
		f.keep = grow(f.keep, n)
		for pc := range n {
			f.keep[pc] = -1
			if f.Keep(pc) {
				f.keep[pc] = int32(kept)
				kept++
			}
		}
	}
	w, total := g.RegWidth(), heads+kept+1+f.Scratch
	f.arena = grow(f.arena, total*w)
	f.states = grow(f.states, total)
	for k := range f.states {
		f.Pass.Bind(&f.states[k], f.arena[k*w:(k+1)*w:(k+1)*w])
	}
	f.entries, f.kept = f.states[:heads], f.states[heads:heads+kept]
	f.st, f.scratch = &f.states[heads+kept], f.states[heads+kept+1:]
	f.live = grow(f.live, heads)
	clear(f.live)
	f.walked = grow(f.walked, heads)
	clear(f.walked)
	f.keptOK = grow(f.keptOK, kept)
	clear(f.keptOK)
	f.wave = 0
	f.work.reset(n)
}

// Run computes the fixpoint from the program entry, whose state init
// writes. It reports false, the states then being no fixpoint, when
// the walks would step more than budget instructions.
func (f *Fixpoint[S, V]) Run(init func(st *S), budget int) bool {
	if len(f.head) == 0 {
		return true
	}
	init(&f.entries[0])
	f.live[0] = true
	f.work.push(0)
	f.budget = budget
	for h, ok := f.work.pop(); ok; h, ok = f.work.pop() {
		k := f.head[h]
		same := f.walked[k] == f.wave
		f.walked[k] = f.wave
		f.Pass.Copy(f.st, &f.entries[k])
		if !f.walk(h, same) {
			return false
		}
	}
	return true
}

// walk walks the run at head h once, reporting false when the budget
// runs out.
func (f *Fixpoint[S, V]) walk(h int, same bool) bool {
	st := f.st
	pc := h
	for ; ; pc++ {
		if i := f.keptAt(pc); i >= 0 {
			kp := &f.kept[i]
			if pc > h && same && f.keptOK[i] && f.Equal(kp, st) {
				return true
			}
			f.Pass.Copy(kp, st)
			f.keptOK[i] = true
		}
		if f.budget--; f.budget < 0 {
			return false
		}
		f.Pass.Step(pc, st)
		if !f.inRun(pc) {
			break
		}
		if !f.fallThrough(pc) {
			return true
		}
	}
	// The run's last instruction: a join may change what a refinement
	// reads, so every edge is refined first.
	succs := f.g.Succs(pc)
	var out [2]*S
	for i, e := range succs {
		out[i] = f.Pass.Edge(pc, e, st)
	}
	for i, e := range succs {
		if out[i] == nil {
			continue
		}
		k := f.head[e.To]
		fresh := !f.live[k]
		if f.Pass.Join(pc, e.To, &f.entries[k], out[i], fresh) || fresh {
			f.live[k] = true
			f.work.push(e.To)
		}
	}
	return true
}

// inRun reports whether pc falls through to pc+1 inside its run: pc+1
// is no head, so pc is its one predecessor and no BRA.
func (f *Fixpoint[S, V]) inRun(pc int) bool {
	return pc+1 < len(f.head) && f.head[pc+1] < 0
}

// fallThrough moves the walk state from an in-run pc onto pc+1,
// reporting false when the edge is dead. Only an EXIT's fall-through
// can be refined or dead.
func (f *Fixpoint[S, V]) fallThrough(pc int) bool {
	if f.g.instrs[pc].Op != EXIT {
		return true
	}
	es := f.Pass.Edge(pc, f.g.succs[pc][0], f.st)
	if es == nil {
		return false
	}
	if es != f.st {
		f.Pass.Copy(f.st, es)
	}
	return true
}

// Requeue marks every reached head pending and starts a new wave, in
// which no walk stops early at a state kept before it: the pass's
// transfer changed under the states computed so far.
func (f *Fixpoint[S, V]) Requeue() {
	f.wave++
	for pc, k := range f.head {
		if k >= 0 && f.live[k] {
			f.work.push(pc)
		}
	}
}

// Drop unreaches the heads and forgets the kept states downstream of
// head h, h excluded: the fixpoint repopulates the region from what
// still flows into it.
func (f *Fixpoint[S, V]) Drop(h int) {
	seen := make([]bool, len(f.head))
	seen[h] = true
	for _, e := range f.g.Succs(h) {
		f.g.Reach(e.To, seen)
	}
	seen[h] = false
	for pc, s := range seen {
		if !s {
			continue
		}
		if k := f.head[pc]; k >= 0 && f.live[k] {
			f.live[k] = false
			f.work.remove(pc)
		}
		if i := f.keptAt(pc); i >= 0 {
			f.keptOK[i] = false
		}
	}
}

// Final walks every reached run once more from its head's converged
// entry, calling visit with the in-state of each instruction it
// reaches, in increasing pc order, before stepping it.
func (f *Fixpoint[S, V]) Final(visit func(pc int, st *S)) {
	live := false
	for pc, k := range f.head {
		if k >= 0 {
			if live = f.live[k]; live {
				f.Pass.Copy(f.st, &f.entries[k])
			}
		}
		if !live {
			continue
		}
		visit(pc, f.st)
		f.Pass.Step(pc, f.st)
		live = f.inRun(pc) && f.fallThrough(pc)
	}
}

// Kept returns the in-state kept at pc, or nil when pc is not kept or
// no walk has passed it.
func (f *Fixpoint[S, V]) Kept(pc int) *S {
	if i := f.keptAt(pc); i >= 0 && f.keptOK[i] {
		return &f.kept[i]
	}
	return nil
}

// keptAt returns the index of pc's kept state, or -1.
func (f *Fixpoint[S, V]) keptAt(pc int) int32 {
	if len(f.keep) == 0 {
		return -1
	}
	return f.keep[pc]
}

// ScratchState returns the pass's i-th scratch state.
func (f *Fixpoint[S, V]) ScratchState(i int) *S { return &f.scratch[i] }

// worklist is the set of pending run heads. pop returns the lowest, so
// the walks sweep the program in order and revisit a loop head only
// after the code above it has settled.
type worklist struct {
	bits []uint64
	low  int // no pending index lies in a word below low
}

// reset empties w over indices [0, n).
func (w *worklist) reset(n int) {
	w.bits = grow(w.bits, (n+63)/64)
	clear(w.bits)
	w.low = 0
}

// push marks pc pending.
func (w *worklist) push(pc int) {
	w.bits[pc>>6] |= 1 << uint(pc&63)
	if pc>>6 < w.low {
		w.low = pc >> 6
	}
}

// remove unmarks pc.
func (w *worklist) remove(pc int) { w.bits[pc>>6] &^= 1 << uint(pc&63) }

// pop removes and returns the lowest pending index; ok is false when
// nothing is pending.
func (w *worklist) pop() (pc int, ok bool) {
	for ; w.low < len(w.bits); w.low++ {
		if b := w.bits[w.low]; b != 0 {
			i := bits.TrailingZeros64(b)
			w.bits[w.low] = b &^ (1 << uint(i))
			return w.low<<6 | i, true
		}
	}
	return 0, false
}
