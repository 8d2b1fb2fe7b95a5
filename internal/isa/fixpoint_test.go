package isa

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// kval is the test domain's per-register value: a known constant or
// unknown. kstate adds the predicates whose truth is known.
type kval struct {
	known bool
	v     int64
}

type kstate struct {
	regs   []kval
	pk, pv [NumPredRegs]bool
}

// kpass is a small conditional constant propagation over MOV, IADD and
// SETP: enough to make edges provably dead. It records what the driver
// asks of it.
type kpass struct {
	p       *Program
	fx      *Fixpoint[kstate, kval]
	stepped []bool          // every pc Run stepped
	steps   int             // the Step calls
	dead    map[[2]int]bool // the edges (from, to) Edge last found dead
	misjoin [][2]int        // joins along an edge Edge had just found dead
}

func (k *kpass) Bind(st *kstate, regs []kval) { st.regs = regs }
func (k *kpass) Copy(dst, src *kstate) {
	copy(dst.regs, src.regs)
	dst.pk, dst.pv = src.pk, src.pv
}

func (k *kpass) reg(st *kstate, r Reg) kval {
	if r == RZ {
		return kval{known: true}
	}
	return st.regs[r]
}

// guard resolves in's guard: known, and whether it holds.
func (k *kpass) guard(st *kstate, in *Instr) (bool, bool) {
	if in.Pred == PT {
		return true, !in.PredNeg
	}
	return st.pk[in.Pred], st.pv[in.Pred] != in.PredNeg
}

func (k *kpass) Step(pc int, st *kstate) {
	k.steps++
	if k.stepped != nil {
		k.stepped[pc] = true
	}
	in := &k.p.Instrs[pc]
	known, holds := k.guard(st, in)
	if known && !holds {
		return
	}
	var v kval
	switch in.Op {
	case MOV:
		v = kval{known: true, v: int64(in.Imm)}
	case IADD:
		if a := k.reg(st, in.Src[0]); a.known {
			v = kval{known: true, v: a.v + int64(in.Imm)}
		}
	case SETP:
		a := k.reg(st, in.Src[0])
		pd := in.Dst & 7
		st.pk[pd] = a.known && known
		st.pv[pd] = st.pk[pd] && a.v < int64(in.Imm)
		return
	default:
		return
	}
	if !known && st.regs[in.Dst] != v {
		v = kval{}
	}
	st.regs[in.Dst] = v
}

func (k *kpass) Edge(pc int, e Edge, st *kstate) *kstate {
	in := &k.p.Instrs[pc]
	if in.Op != BRA && in.Op != EXIT {
		return st
	}
	dead := false
	if known, holds := k.guard(st, in); known && holds != e.Taken {
		dead = true
	}
	k.dead[[2]int{pc, e.To}] = dead
	if dead {
		return nil
	}
	return st
}

func (k *kpass) Join(from, to int, dst, src *kstate, fresh bool) bool {
	if k.dead[[2]int{from, to}] {
		k.misjoin = append(k.misjoin, [2]int{from, to})
	}
	if fresh {
		k.Copy(dst, src)
		return true
	}
	return kmeet(dst, src)
}

// kmeet drops from dst every fact src disagrees with, reporting change.
func kmeet(dst, src *kstate) bool {
	changed := false
	for r := range dst.regs {
		if dst.regs[r].known && dst.regs[r] != src.regs[r] {
			dst.regs[r] = kval{}
			changed = true
		}
	}
	for p := range dst.pk {
		if dst.pk[p] && (!src.pk[p] || dst.pv[p] != src.pv[p]) {
			dst.pk[p], dst.pv[p] = false, false
			changed = true
		}
	}
	return changed
}

func kentry(st *kstate) {
	for r := range st.regs {
		st.regs[r] = kval{known: true}
	}
	st.pk, st.pv = [NumPredRegs]bool{}, [NumPredRegs]bool{}
}

// kref is the per-instruction reference: an in-state at every
// instruction, each stepped from its own in-state, its post-state met
// into every successor along a live edge.
func kref(p *Program) (in []kstate, reached []bool) {
	g := NewCFG(p)
	k := &kpass{p: p, dead: map[[2]int]bool{}}
	n, w := len(p.Instrs), g.RegWidth()
	in = make([]kstate, n)
	for i := range in {
		in[i].regs = make([]kval, w)
	}
	reached = make([]bool, n)
	kentry(&in[0])
	reached[0] = true
	pending := make([]bool, n)
	pending[0] = true
	for {
		i := slices.Index(pending, true)
		if i < 0 {
			return in, reached
		}
		pending[i] = false
		st := kstate{regs: slices.Clone(in[i].regs), pk: in[i].pk, pv: in[i].pv}
		k.Step(i, &st)
		for _, e := range g.Succs(i) {
			if k.Edge(i, e, &st) == nil {
				continue
			}
			if !reached[e.To] {
				reached[e.To] = true
				k.Copy(&in[e.To], &st)
				pending[e.To] = true
			} else if kmeet(&in[e.To], &st) {
				pending[e.To] = true
			}
		}
	}
}

func kprog(name string, instrs ...Instr) *Program {
	for i := range instrs {
		if instrs[i].Pred == 0 && !instrs[i].PredNeg && instrs[i].Op != BRA && instrs[i].Op != EXIT {
			instrs[i].Pred = PT
		}
	}
	return &Program{Name: name, NumRegs: 8, Instrs: instrs}
}

func kmov(d Reg, imm int32) Instr {
	return Instr{Op: MOV, Dst: d, Src: [3]Reg{RZ, RZ, RZ}, Imm: imm, HasImm: true}
}
func kadd(d, a Reg, imm int32) Instr {
	return Instr{Op: IADD, Dst: d, Src: [3]Reg{a, RZ, RZ}, Imm: imm, HasImm: true}
}
func ksetp(pd PredReg, a Reg, imm int32) Instr {
	return Instr{Op: SETP, Dst: Reg(pd), Src: [3]Reg{a, RZ, RZ}, Imm: imm, HasImm: true, Aux: uint8(CmpLT)}
}
func kbra(pred PredReg, neg bool, target int32) Instr {
	return Instr{Op: BRA, Dst: RZ, Src: [3]Reg{RZ, RZ, RZ}, Target: target, Pred: pred, PredNeg: neg}
}
func kexit(pred PredReg) Instr { return Instr{Op: EXIT, Dst: RZ, Src: [3]Reg{RZ, RZ, RZ}, Pred: pred} }

// kshapes are the hand-built shapes the driver must walk as the
// reference does.
func kshapes(t *testing.T) []*Program {
	t.Helper()
	straight := []Instr{kmov(1, 0)}
	for range 998 {
		straight = append(straight, kadd(1, 1, 1))
	}
	straight = append(straight, kexit(PT))
	progs := []*Program{
		// for R1 = 0; R1 < 4; R1++ {}: the counter is lost at the head.
		kprog("counted_loop",
			kmov(1, 0),
			ksetp(0, 1, 4), // 1: loop head
			kbra(0, true, 5),
			kadd(1, 1, 1),
			kbra(PT, false, 1),
			kexit(PT)),
		// Two nested counted loops; R3 stays 7 throughout.
		kprog("nested_loops",
			kmov(3, 7),
			kmov(1, 0),
			ksetp(0, 1, 3), // 2: outer head
			kbra(0, true, 11),
			kmov(2, 0),
			ksetp(1, 2, 5), // 5: inner head
			kbra(1, true, 9),
			kadd(2, 2, 1),
			kbra(PT, false, 5),
			kadd(1, 1, 1), // 9: outer latch
			kbra(PT, false, 2),
			kexit(PT)),
		// @!PT BRA is never taken: its target is reached only by
		// falling into it.
		kprog("never_taken",
			kmov(1, 1),
			kbra(PT, true, 3),
			kmov(1, 2),
			kadd(2, 1, 1), // 3
			kexit(PT)),
		// P0 is proven true, so the mid-run @P0 EXIT always retires the
		// warp: what follows it is dead, and so is the branch target
		// only that code reaches.
		kprog("exit_mid_run",
			kmov(1, 0),
			ksetp(0, 1, 5),
			kexit(0),
			kmov(2, 9), // 3: dead
			kbra(PT, false, 6),
			kexit(PT),
			kmov(3, 1), // 6: dead
			kexit(PT)),
		// The guard is proven false, so the taken edge is dead.
		kprog("dead_taken",
			kmov(1, 9),
			ksetp(0, 1, 5),
			kbra(0, false, 4),
			kexit(PT),
			kmov(2, 1), // 4: dead
			kexit(PT)),
		kprog("straight_line", straight...),
	}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	return progs
}

func kanalyze(p *Program) *kpass {
	k := &kpass{p: p, dead: map[[2]int]bool{}, stepped: make([]bool, len(p.Instrs))}
	k.fx = &Fixpoint[kstate, kval]{Pass: k}
	k.fx.Init(NewCFG(p))
	return k
}

func kdiff(pc int, got *kstate, want *kstate) string {
	if !slices.Equal(got.regs, want.regs) || got.pk != want.pk || got.pv != want.pv {
		return fmt.Sprintf("pc %d: state %+v, reference %+v", pc, *got, *want)
	}
	return ""
}

// TestFixpointMatchesPerInstruction checks the driver against the
// per-instruction reference on the hand-built shapes: the in-state at
// every reached instruction (each head's entry among them) and the
// reached set. The final walk visits each reached pc once, in
// increasing order, and a dead edge is never joined along.
func TestFixpointMatchesPerInstruction(t *testing.T) {
	for _, p := range kshapes(t) {
		k := kanalyze(p)
		if !k.fx.Run(kentry, math.MaxInt) {
			t.Fatalf("%s: unbounded run reported an exhausted budget", p.Name)
		}
		ref, refReached := kref(p)
		var visited []int
		k.fx.Final(func(pc int, st *kstate) {
			visited = append(visited, pc)
			if msg := kdiff(pc, st, &ref[pc]); msg != "" {
				t.Errorf("%s: %s", p.Name, msg)
			}
		})
		var want []int
		for pc, r := range refReached {
			if r {
				want = append(want, pc)
			}
		}
		if !slices.Equal(visited, want) {
			t.Errorf("%s: the final walk visited %v, want each reached pc once in order %v", p.Name, visited, want)
		}
		for _, j := range k.misjoin {
			t.Errorf("%s: joined along the dead edge %d -> %d", p.Name, j[0], j[1])
		}
		for pc, s := range k.stepped {
			if s && !refReached[pc] {
				t.Errorf("%s: Run stepped pc %d, which no live edge reaches", p.Name, pc)
			}
		}
	}
}

// TestFixpointDeadEdges pins the dead edges of the shapes: the code
// after an always-taken mid-run EXIT and the target of a never-taken
// branch are never reached, and @!PT BRA contributes no edge at all.
func TestFixpointDeadEdges(t *testing.T) {
	want := map[string][]int{
		"never_taken":  {},
		"exit_mid_run": {3, 4, 5, 6, 7},
		"dead_taken":   {4, 5},
	}
	for _, p := range kshapes(t) {
		dead, ok := want[p.Name]
		if !ok {
			continue
		}
		k := kanalyze(p)
		k.fx.Run(kentry, math.MaxInt)
		reached := make([]bool, len(p.Instrs))
		k.fx.Final(func(pc int, _ *kstate) { reached[pc] = true })
		var got []int
		for pc, r := range reached {
			if !r {
				got = append(got, pc)
			}
		}
		if len(got) != len(dead) || (len(dead) > 0 && !slices.Equal(got, dead)) {
			t.Errorf("%s: unreached %v, want %v", p.Name, got, dead)
		}
	}
}

// TestFixpointBudget: a budget below the visits the fixpoint needs is
// reported, and one at that count is not.
func TestFixpointBudget(t *testing.T) {
	for _, p := range kshapes(t) {
		k := kanalyze(p)
		k.fx.Run(kentry, math.MaxInt)
		need := k.steps
		k = kanalyze(p)
		if k.fx.Run(kentry, need-1) {
			t.Errorf("%s: a budget of %d visits, one short, was not reported exhausted", p.Name, need-1)
		}
		k = kanalyze(p)
		if !k.fx.Run(kentry, need) {
			t.Errorf("%s: a budget of exactly %d visits was reported exhausted", p.Name, need)
		}
	}
}

// TestFixpointStraightLineRun: a 1000-instruction straight-line program
// is one run, walked once.
func TestFixpointStraightLineRun(t *testing.T) {
	p := kshapes(t)[5]
	k := kanalyze(p)
	k.fx.Run(kentry, math.MaxInt)
	if k.steps != len(p.Instrs) {
		t.Errorf("%d instructions stepped, want %d", k.steps, len(p.Instrs))
	}
	if heads := len(k.fx.entries); heads != 1 {
		t.Errorf("%d run heads, want 1", heads)
	}
	var last kval
	k.fx.Final(func(pc int, st *kstate) { last = st.regs[1] })
	if want := (kval{known: true, v: 998}); last != want {
		t.Errorf("R1 at the EXIT = %+v, want %+v", last, want)
	}
}
