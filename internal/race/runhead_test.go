package race

import (
	"fmt"
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/workloads"
)

// refFixpoint is the per-instruction fixpoint the run-head walk
// replaces: an entry state at every instruction, each popped
// instruction stepped from a copy of its own entry, the budget counted
// in pops. It shares the transfer, refinement, scrub and merge code
// with the analysis; only the state keeping differs.
type refFixpoint struct {
	ax        *analysis
	entries   []state
	live      []bool
	work      *refWork
	pops      int
	converged bool
}

func cloneState(s *state) state {
	var c state
	c.copyFrom(s)
	return c
}

func refAnalyze(p *isa.Program, c bounds.Contract) *refFixpoint {
	r := &refFixpoint{ax: newAnalysis(p, c, nil), converged: true}
	n := len(p.Instrs)
	r.entries = make([]state, n)
	r.live = make([]bool, n)
	r.work = newRefWork(n)
	if n == 0 {
		return r
	}
	init := state{regs: make([]rval, r.ax.g.RegWidth())}
	for i := range init.regs {
		init.regs[i] = mkConst(0)
	}
	r.entries[0], r.live[0] = init, true
	r.work.Push(0)
	budget := 256*n + 8192
	for pc, ok := r.work.Pop(); ok; pc, ok = r.work.Pop() {
		if budget--; budget < 0 {
			r.converged = false
			return r
		}
		r.pops++
		r.step(pc)
		if r.ax.symDirty {
			r.ax.symDirty = false
			r.requeue()
		}
	}
	return r
}

func (r *refFixpoint) requeue() {
	for pc := range r.entries {
		if r.live[pc] {
			r.work.Push(pc)
		}
	}
}

func (r *refFixpoint) step(pc int) {
	ax := r.ax
	st := cloneState(&r.entries[pc])
	st.div = removeDiv(st.div, int32(pc))
	in := &ax.p.Instrs[pc]
	type succ struct {
		pc int
		st state
	}
	var out []succ
	switch in.Op {
	case isa.EXIT, isa.BRA:
		divergent := in.Op == isa.BRA && in.Pred != isa.PT && !st.preds[in.Pred&7].uni
		join := divAll
		if rc := ax.g.Reconv(pc); rc >= 0 {
			join = int32(rc)
		}
		for _, e := range ax.g.Succs(pc) {
			est := cloneState(&st)
			if !ax.refineGuard(&est, in.Pred, e.Taken != in.PredNeg) {
				continue
			}
			if divergent {
				est.div = addDiv(est.div, join)
			}
			out = append(out, succ{e.To, est})
		}
	default:
		ax.transfer(&st, in)
		for _, e := range ax.g.Succs(pc) {
			out = append(out, succ{e.To, cloneState(&st)})
		}
	}
	for i := range out {
		r.flow(pc, out[i].pc, &out[i].st)
	}
}

func (r *refFixpoint) flow(from, to int, inc *state) {
	ax := r.ax
	ax.scrubHome(to, inc)
	old := &r.entries[to]
	if !r.live[to] || ax.g.InDegree(to) <= 1 {
		if !r.live[to] || !stateEq(old, inc) {
			r.entries[to], r.live[to] = cloneState(inc), true
			r.work.Push(to)
		}
		return
	}
	changed, reset := ax.join(from, to, old, inc)
	if reset {
		seen := make([]bool, len(ax.p.Instrs))
		seen[to] = true
		for _, e := range ax.g.Succs(to) {
			ax.g.Reach(e.To, seen)
		}
		seen[to] = false
		for pc, s := range seen {
			if s && r.live[pc] {
				r.entries[pc], r.live[pc] = state{}, false
				r.work.Remove(pc)
			}
		}
		r.requeue()
	}
	if changed {
		r.work.Push(to)
	}
}

// diffRunHeads describes the first difference between the run-head
// analysis ax and the per-instruction reference ref of the same
// program: convergence, the minted symbols and their ranges, every run
// head's entry, and every kept state (each shared access, barrier and
// run end) against the reference's entry there. It returns "" when
// they agree.
func diffRunHeads(ax *analysis, ref *refFixpoint) string {
	if ax.converged != ref.converged {
		return fmt.Sprintf("converged %v, reference %v", ax.converged, ref.converged)
	}
	if !ax.converged {
		return ""
	}
	if len(ax.vars) != len(ref.ax.vars) {
		return fmt.Sprintf("%d constraint variables, reference %d", len(ax.vars), len(ref.ax.vars))
	}
	for v := range ax.vars {
		if ax.vars[v] != ref.ax.vars[v] {
			return fmt.Sprintf("variable %d = %+v, reference %+v", v, ax.vars[v], ref.ax.vars[v])
		}
	}
	entries := make([]*state, len(ax.p.Instrs)) // a run head's entry is the final walk's state there
	ax.fx.Final(func(pc int, st *state) {
		if ax.g.RunHead(pc) {
			c := cloneState(st)
			entries[pc] = &c
		}
	})
	for pc := range ax.p.Instrs {
		var got *state
		switch {
		case ax.g.RunHead(pc):
			got = entries[pc]
		case ax.keeps(pc):
			got = ax.fx.Kept(pc)
		default:
			continue
		}
		if (got != nil) != ref.live[pc] || (got != nil && !stateEq(got, &ref.entries[pc])) {
			return fmt.Sprintf("pc %d (%s): the kept state differs from the reference entry", pc, &ax.p.Instrs[pc])
		}
	}
	return ""
}

// namedProg is one program the run-head test analyzes, with its launch
// contract.
type namedProg struct {
	name string
	p    *isa.Program
	c    bounds.Contract
}

// handLoops are kernels whose fixpoint exercises the rules the run-head
// walk must reproduce: a barrier inside a uniform counted loop (the
// loop head executes once per phase, so its counter merge mints a
// symbol and resets the loop body), a thread-dependent loop trip (a
// divergent merge), nested loops with a barrier in the inner one, and
// a loop around a predicated EXIT whose refined fall-through reaches a
// shared store.
func handLoops(t *testing.T) []namedProg {
	t.Helper()
	c := contract1D(64, 1)
	var out []namedProg
	add := func(f *ir.Func) {
		p, _, err := compiler.CompileWithSourceMap(f, compiler.ModeLMI)
		if err != nil {
			t.Fatalf("%s: compile: %v", f.Name, err)
		}
		out = append(out, namedProg{f.Name, p, c})
	}

	b := ir.NewBuilder("barrier_loop")
	sh := b.Shared(65 * 4)
	tid := b.TID()
	b.For(b.ConstI(ir.I32, 6), func(i ir.Value) {
		b.Store(b.GEP(sh, tid, 4, 0), b.Add(tid, i), 0)
		b.Barrier()
		v := b.Load(ir.I32, b.GEP(sh, b.Add(tid, b.ConstI(ir.I32, 1)), 4, 0), 0)
		b.Barrier()
		b.Store(b.GEP(sh, tid, 4, 0), v, 0)
		b.Barrier()
	})
	add(b.MustFinish())

	b = ir.NewBuilder("divergent_loop")
	out0 := b.Param(ir.PtrGlobal)
	sh = b.Shared(256 * 4)
	tid = b.TID()
	idx := b.Var(tid)
	b.While(func() ir.Value { return b.ICmp(isa.CmpLT, idx, b.ConstI(ir.I32, 200)) }, func() {
		b.Store(b.GEP(sh, idx, 4, 0), idx, 0)
		b.Assign(idx, b.Add(idx, b.NTID()))
	})
	b.Barrier()
	b.If(b.ICmp(isa.CmpLT, tid, b.ConstI(ir.I32, 16)), func() {
		b.Barrier()
	}, nil)
	b.Store(b.GEP(out0, tid, 4, 0), b.Load(ir.I32, b.GEP(sh, tid, 4, 0), 0), 0)
	add(b.MustFinish())

	b = ir.NewBuilder("nested_barrier_loop")
	sh = b.Shared(64 * 4)
	tid = b.TID()
	b.For(b.ConstI(ir.I32, 3), func(i ir.Value) {
		b.For(b.ConstI(ir.I32, 4), func(j ir.Value) {
			b.Store(b.GEP(sh, tid, 4, 0), b.Add(i, j), 0)
			b.Barrier()
			b.AtomicAdd(sh, b.Load(ir.I32, b.GEP(sh, b.Sub(b.ConstI(ir.I32, 63), tid), 4, 0), 0), 0)
			b.Barrier()
		})
	})
	add(b.MustFinish())

	// R1 = tid, R2 = 0; loop: P0 = R2 >= 4; @P0 EXIT; STS [R1*4], R2;
	// BAR; R2 += 1; BRA loop.
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	exitLoop := &isa.Program{Name: "exit_loop", NumRegs: 8, Instrs: []isa.Instr{
		{Op: isa.S2R, Dst: 1, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT},
		{Op: isa.MOV, Dst: 2, Src: rz, HasImm: true, Pred: isa.PT},
		{Op: isa.SETP, Dst: 0, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Imm: 4, HasImm: true, Aux: uint8(isa.CmpGE), Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: 0},
		{Op: isa.SHL, Dst: 3, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Imm: 2, HasImm: true, Pred: isa.PT},
		{Op: isa.STS, Dst: isa.RZ, Src: [3]isa.Reg{3, 2, isa.RZ}, Aux: 2, Pred: isa.PT},
		{Op: isa.BAR, Dst: isa.RZ, Src: rz, Pred: isa.PT},
		{Op: isa.IADD, Dst: 2, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Imm: 1, HasImm: true, Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 2, Pred: isa.PT},
	}}
	if err := exitLoop.Validate(); err != nil {
		t.Fatalf("exit_loop: %v", err)
	}
	return append(out, namedProg{"exit_loop", exitLoop, c})
}

// TestRunHeadStatesEqualPerInstruction is the race counterpart of the
// specialize audit's TestKeptFixpointEqualsFresh: over the corpus (raw
// and optimized, both compile modes, and elided), the apps and the
// hand-written loops, the run-head walk must end with the same
// convergence and symbols as the per-instruction reference, and every
// run head's entry and every kept state must equal the reference's
// entry there. The walk steps at least as many instructions as the
// reference pops.
func TestRunHeadStatesEqualPerInstruction(t *testing.T) {
	var progs []namedProg
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		for _, mode := range []compiler.Mode{compiler.ModeBase, compiler.ModeLMI} {
			p, _, err := compiler.CompileWithSourceMap(f, mode)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", s.Name, mode, err)
			}
			progs = append(progs, namedProg{fmt.Sprintf("%s/%v", s.Name, mode), p, s.Contract()},
				namedProg{fmt.Sprintf("%s/%v/opt", s.Name, mode), compiler.Optimize(p), s.Contract()})
		}
		pe, _, _, err := compiler.CompileElidedWithSourceMap(f, s.Contract())
		if err != nil {
			t.Fatalf("%s/elide: compile: %v", s.Name, err)
		}
		progs = append(progs, namedProg{s.Name + "/elide", pe, s.Contract()})
	}
	for _, ac := range appContracts() {
		p, _, err := compiler.CompileWithSourceMap(ac.f, compiler.ModeLMI)
		if err != nil {
			t.Fatalf("%s: compile: %v", ac.f.Name, err)
		}
		progs = append(progs, namedProg{"app:" + ac.f.Name, p, ac.c})
	}
	progs = append(progs, handLoops(t)...)

	minted, total, pops, share, ratio := 0, 0, 0, 0.0, 0.0
	for _, pr := range progs {
		ax := newAnalysis(pr.p, pr.c, nil)
		ax.run()
		steps := ax.steps
		ref := refAnalyze(pr.p, pr.c)
		if diff := diffRunHeads(ax, ref); diff != "" {
			t.Errorf("%s: %s", pr.name, diff)
		}
		if steps < ref.pops {
			t.Errorf("%s: the walk stepped %d instructions, fewer than the reference's %d pops", pr.name, steps, ref.pops)
		}
		if pr.name == "barrier_loop" && len(ax.mergeSym) == 0 {
			t.Errorf("%s: no merge symbol minted; the loop does not exercise the reset", pr.name)
		}
		minted += len(ax.mergeSym)
		total += steps
		pops += ref.pops
		share = max(share, float64(steps)/float64(256*len(pr.p.Instrs)+8192))
		ratio = max(ratio, float64(steps)/float64(max(ref.pops, 1)))
	}
	t.Logf("%d programs, %d merge symbols; %d instructions stepped, %d reference pops (at most %.2fx in one program); at most %.2f%% of a budget used",
		len(progs), minted, total, pops, ratio, 100*share)
}

// refWork is the reference fixpoints' worklist: the pending pcs,
// popped lowest first.
type refWork struct {
	pending []bool
	low     int // no pending pc lies below low
}

func newRefWork(n int) *refWork { return &refWork{pending: make([]bool, n)} }

func (w *refWork) Push(pc int) {
	w.pending[pc] = true
	w.low = min(w.low, pc)
}

func (w *refWork) Remove(pc int) { w.pending[pc] = false }

func (w *refWork) Pop() (int, bool) {
	for ; w.low < len(w.pending); w.low++ {
		if w.pending[w.low] {
			w.pending[w.low] = false
			return w.low, true
		}
	}
	return 0, false
}
