package race

import (
	"fmt"
	"testing"

	"lmi/internal/apps"
	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// TestCorpusStaticallyClean proves the whole Table V workload corpus
// race- and divergence-free in both compile modes, before and after
// the peephole optimizer, under each workload's launch contract. This
// is the static half of the differential validation; the dynamic race
// oracle covers the same corpus in the sim and fastsim tests.
func TestCorpusStaticallyClean(t *testing.T) {
	anyShared := false
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		c := s.Contract()
		for _, mode := range []compiler.Mode{compiler.ModeBase, compiler.ModeLMI} {
			p, src, err := compiler.CompileWithSourceMap(f, mode)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", s.Name, mode, err)
			}
			for _, opt := range []bool{false, true} {
				prog, smap := p, src
				label := "raw"
				if opt {
					prog, smap = compiler.Optimize(p), nil
					label = "opt"
				}
				res := Analyze(prog, c, smap)
				if !res.Converged {
					t.Fatalf("%s/%v/%s: analysis did not converge", s.Name, mode, label)
				}
				for _, d := range res.Diags {
					t.Errorf("%s/%v/%s: %v: %s", s.Name, mode, label, d.Kind, d.Msg)
				}
				if res.SharedAccesses > 0 {
					anyShared = true
				}
			}
		}
		// The elide pipeline emits E hints but must summarize identically.
		pe, esrc, _, err := compiler.CompileElidedWithSourceMap(f, c)
		if err != nil {
			t.Fatalf("%s/elide: compile: %v", s.Name, err)
		}
		res := Analyze(pe, c, esrc)
		for _, d := range res.Diags {
			t.Errorf("%s/elide: %v: %s", s.Name, d.Kind, d.Msg)
		}
	}
	if !anyShared {
		t.Fatalf("corpus exercised no shared-memory accesses; the gate is vacuous")
	}
}

// appContracts pairs each app kernel with its canonical launch
// geometry from the apps package — the same pairing lmi-lint -race
// sweeps.
func appContracts() []struct {
	f *ir.Func
	c bounds.Contract
} {
	fs, cs := apps.All(), apps.Contracts()
	out := make([]struct {
		f *ir.Func
		c bounds.Contract
	}, len(fs))
	for i := range fs {
		out[i].f, out[i].c = fs[i], cs[i]
	}
	return out
}

// TestAppsStaticallyClean proves the real-algorithm kernels — tiled
// matmul's double-buffered tiles, the tree reduction's halving stride,
// BFS's data-dependent loops — race- and divergence-free.
func TestAppsStaticallyClean(t *testing.T) {
	sharedApps := 0
	for _, ac := range appContracts() {
		for _, mode := range []compiler.Mode{compiler.ModeBase, compiler.ModeLMI} {
			p, src, err := compiler.CompileWithSourceMap(ac.f, mode)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", ac.f.Name, mode, err)
			}
			for _, opt := range []bool{false, true} {
				prog, smap := p, src
				if opt {
					prog, smap = compiler.Optimize(p), nil
				}
				res := Analyze(prog, ac.c, smap)
				if !res.Converged {
					t.Fatalf("%s/%v/opt=%v: did not converge", ac.f.Name, mode, opt)
				}
				for _, d := range res.Diags {
					t.Errorf("%s/%v/opt=%v: %v: %s", ac.f.Name, mode, opt, d.Kind, d.Msg)
				}
				if res.SharedAccesses > 0 && mode == compiler.ModeBase && !opt {
					sharedApps++
				}
			}
		}
	}
	if sharedApps < 2 {
		t.Fatalf("expected matmul and reduce to exercise shared memory, got %d apps", sharedApps)
	}
}

// buildAndAnalyze compiles an IR kernel and runs the analyzer.
func buildAndAnalyze(t *testing.T, f *ir.Func, c bounds.Contract) (*Result, *isa.Program) {
	t.Helper()
	p, src, err := compiler.CompileWithSourceMap(f, compiler.ModeLMI)
	if err != nil {
		t.Fatalf("%s: compile: %v", f.Name, err)
	}
	res := Analyze(p, c, src)
	if !res.Converged {
		t.Fatalf("%s: analysis did not converge", f.Name)
	}
	return res, p
}

func contract1D(block, grid int64) bounds.Contract {
	return bounds.Contract{CountParam: -1, BlockDimX: block, GridDimX: grid}
}

// findRace returns the race diagnostics of a result.
func races(res *Result) []Diag {
	var out []Diag
	for _, d := range res.Diags {
		if d.Kind == KindRace {
			out = append(out, d)
		}
	}
	return out
}

// pcOf finds the single instruction with opcode op, failing the test
// if it is absent or ambiguous.
func pcOf(t *testing.T, p *isa.Program, op isa.Opcode) int {
	t.Helper()
	pc := -1
	for i := range p.Instrs {
		if p.Instrs[i].Op == op {
			if pc >= 0 {
				t.Fatalf("multiple %v instructions", op)
			}
			pc = i
		}
	}
	if pc < 0 {
		t.Fatalf("no %v instruction", op)
	}
	return pc
}

// TestMissingBarrierRace plants the canonical neighbour-exchange bug:
// each thread stores sh[tid] and reads sh[tid+1] with no barrier
// between. The analyzer must pin a read-write race on exactly the STS
// and LDS instructions, and adding the barrier back must prove the
// kernel clean.
func TestMissingBarrierRace(t *testing.T) {
	build := func(withBarrier bool) *ir.Func {
		b := ir.NewBuilder("neighbour_exchange")
		out := b.Param(ir.PtrGlobal)
		sh := b.Shared(65 * 4)
		tid := b.TID()
		b.Store(b.GEP(sh, tid, 4, 0), tid, 0)
		if withBarrier {
			b.Barrier()
		}
		v := b.Load(ir.I32, b.GEP(sh, b.Add(tid, b.ConstI(ir.I32, 1)), 4, 0), 0)
		b.Store(b.GEP(out, tid, 4, 0), v, 0)
		return b.MustFinish()
	}

	res, p := buildAndAnalyze(t, build(false), contract1D(64, 1))
	rs := races(res)
	if len(rs) != 1 {
		t.Fatalf("want exactly 1 race, got %d: %+v", len(rs), res.Diags)
	}
	sts := pcOf(t, p, isa.STS)
	lds := pcOf(t, p, isa.LDS)
	want := Diag{PC: sts, OtherPC: lds}
	if sts > lds {
		want = Diag{PC: lds, OtherPC: sts}
	}
	if rs[0].PC != want.PC || rs[0].OtherPC != want.OtherPC || rs[0].Race != sim.RaceRW {
		t.Fatalf("race mispinned: got pc=%d other=%d kind=%v, want pc=%d other=%d kind=%v",
			rs[0].PC, rs[0].OtherPC, rs[0].Race, want.PC, want.OtherPC, sim.RaceRW)
	}

	if res2, _ := buildAndAnalyze(t, build(true), contract1D(64, 1)); !res2.Clean() {
		t.Fatalf("barrier variant should be clean, got %+v", res2.Diags)
	}
}

// TestWriteWriteRace plants a stride collision: every thread writes
// sh[tid>>1], so thread pairs (2k, 2k+1) collide write-write.
func TestWriteWriteRace(t *testing.T) {
	b := ir.NewBuilder("stride_collide")
	out := b.Param(ir.PtrGlobal)
	sh := b.Shared(64 * 4)
	tid := b.TID()
	slot := b.Shr(tid, b.ConstI(ir.I32, 1))
	b.Store(b.GEP(sh, slot, 4, 0), tid, 0)
	b.Barrier()
	b.Store(b.GEP(out, tid, 4, 0), b.Load(ir.I32, b.GEP(sh, tid, 4, 0), 0), 0)
	f := b.MustFinish()

	res, p := buildAndAnalyze(t, f, contract1D(64, 1))
	sts := pcOf(t, p, isa.STS)
	found := false
	for _, d := range races(res) {
		if d.Race == sim.RaceWW && d.PC == sts && d.OtherPC == sts {
			found = true
		}
	}
	if !found {
		t.Fatalf("want self write-write race at STS pc %d, got %+v", sts, res.Diags)
	}
}

// TestAtomicVsStoreRace plants an ATOMS/STS conflict on sh[0]: atomics
// commute with each other but not with a plain store.
func TestAtomicVsStoreRace(t *testing.T) {
	b := ir.NewBuilder("atomic_vs_store")
	out := b.Param(ir.PtrGlobal)
	sh := b.Shared(4)
	tid := b.TID()
	b.AtomicAdd(sh, tid, 0)
	b.If(b.ICmp(isa.CmpEQ, tid, b.ConstI(ir.I32, 0)), func() {
		b.Store(sh, b.ConstI(ir.I32, 7), 0)
	}, nil)
	b.Barrier()
	b.Store(b.GEP(out, tid, 4, 0), b.Load(ir.I32, sh, 0), 0)
	f := b.MustFinish()

	res, p := buildAndAnalyze(t, f, contract1D(64, 1))
	atoms := pcOf(t, p, isa.ATOMS)
	sts := pcOf(t, p, isa.STS)
	lo, hi := atoms, sts
	if lo > hi {
		lo, hi = hi, lo
	}
	rs := races(res)
	if len(rs) != 1 || rs[0].Race != sim.RaceAW || rs[0].PC != lo || rs[0].OtherPC != hi {
		t.Fatalf("want exactly one atomic-write race (%d,%d), got %+v", lo, hi, rs)
	}
}

// TestBarrierDivergence plants a BAR inside a thread-dependent branch
// and expects a divergence diagnostic pinned on the BAR; the uniform
// variant of the same shape must be clean.
func TestBarrierDivergence(t *testing.T) {
	build := func(uniformGuard bool) *ir.Func {
		b := ir.NewBuilder("divergent_barrier")
		out := b.Param(ir.PtrGlobal)
		tid := b.TID()
		guard := tid
		if uniformGuard {
			guard = b.Special(isa.SRNctaidX) // launch constant
		}
		b.If(b.ICmp(isa.CmpLT, guard, b.ConstI(ir.I32, 16)), func() {
			b.Barrier()
		}, nil)
		b.Store(b.GEP(out, tid, 4, 0), tid, 0)
		return b.MustFinish()
	}

	res, p := buildAndAnalyze(t, build(false), contract1D(64, 1))
	bar := pcOf(t, p, isa.BAR)
	found := false
	for _, d := range res.Diags {
		if d.Kind == KindBarrierDivergence && d.PC == bar {
			found = true
		}
	}
	if !found {
		t.Fatalf("want barrier-divergence at BAR pc %d, got %+v", bar, res.Diags)
	}

	if res2, _ := buildAndAnalyze(t, build(true), contract1D(64, 1)); !res2.Clean() {
		t.Fatalf("uniform-guard variant should be clean, got %+v", res2.Diags)
	}
}

// TestGridStrideSeedClean checks the congruence engine directly: a
// grid-stride seeding loop writes sh[tid + k*NTID], whose self-pair is
// only provable via the modulo-NTID residue of the index.
func TestGridStrideSeedClean(t *testing.T) {
	b := ir.NewBuilder("grid_stride_seed")
	out := b.Param(ir.PtrGlobal)
	const words = 256
	sh := b.Shared(words * 4)
	tid := b.TID()
	idx := b.Var(tid)
	b.While(func() ir.Value { return b.ICmp(isa.CmpLT, idx, b.ConstI(ir.I32, words)) }, func() {
		b.Store(b.GEP(sh, idx, 4, 0), idx, 0)
		b.Assign(idx, b.Add(idx, b.NTID()))
	})
	b.Barrier()
	b.Store(b.GEP(out, tid, 4, 0), b.Load(ir.I32, b.GEP(sh, tid, 4, 0), 0), 0)
	f := b.MustFinish()

	res, _ := buildAndAnalyze(t, f, contract1D(64, 1))
	if !res.Clean() {
		t.Fatalf("grid-stride seed should be clean, got %+v", res.Diags)
	}
	if res.SharedAccesses < 2 {
		t.Fatalf("expected >= 2 shared accesses, got %d", res.SharedAccesses)
	}
}

// --- unit tests for the decision kernels ---

func TestCongruence(t *testing.T) {
	if m, r := congAdd(0, 3, 0, 4); m != 0 || r != 7 {
		t.Fatalf("congAdd exact: got (%d,%d)", m, r)
	}
	if m, r := congAdd(128, 5, 0, 3); m != 128 || r != 8 {
		t.Fatalf("congAdd shift: got (%d,%d)", m, r)
	}
	if m, r := congJoin(0, 0, 0, 128); m != 128 || r != 0 {
		t.Fatalf("congJoin consts: got (%d,%d)", m, r)
	}
	if m, r := congScale(128, 8, 4); m != 512 || r != 32 {
		t.Fatalf("congScale: got (%d,%d)", m, r)
	}
	if congWitness(512, 0, -511, -1) {
		t.Fatalf("congWitness: no multiple of 512 lies in [-511,-1]")
	}
	if !congWitness(512, 0, -512, -1) {
		t.Fatalf("congWitness: -512 is a multiple of 512")
	}
}

func TestFMInfeasible(t *testing.T) {
	// x <= 4, -x <= -6 (x >= 6): infeasible.
	sys := []fmCon{
		{ts: []term{{v: 0, coef: 1}}, c: 4},
		{ts: []term{{v: 0, coef: -1}}, c: -6},
	}
	if !fmInfeasible(sys, 1) {
		t.Fatalf("disjoint bounds should be infeasible")
	}
	// x <= 4, x >= 1: feasible.
	sys = []fmCon{
		{ts: []term{{v: 0, coef: 1}}, c: 4},
		{ts: []term{{v: 0, coef: -1}}, c: -1},
	}
	if fmInfeasible(sys, 1) {
		t.Fatalf("satisfiable bounds reported infeasible")
	}
	// Tree-reduction core: D = t1 - t2 - s in [-1, 1] (word-scaled),
	// t1 <= s-1, boxes t in [0,127], s in [0,64]: infeasible.
	sys = []fmCon{
		{ts: []term{{v: 0, coef: 1}, {v: 1, coef: -1}, {v: 2, coef: -1}}, c: 0},
		{ts: []term{{v: 0, coef: -1}, {v: 1, coef: 1}, {v: 2, coef: 1}}, c: 0},
		{ts: []term{{v: 0, coef: 1}, {v: 2, coef: -1}}, c: -1}, // t1 - s <= -1
		{ts: []term{{v: 0, coef: -1}}, c: 0},
		{ts: []term{{v: 1, coef: -1}}, c: 0},
		{ts: []term{{v: 2, coef: -1}}, c: 0},
	}
	if !fmInfeasible(sys, 3) {
		t.Fatalf("tree-reduction system should be infeasible")
	}
}

// TestNeverTakenBranch: @!PT BRA is never taken, so the store after it
// runs in every thread and races with itself.
func TestNeverTakenBranch(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	p := &isa.Program{Name: "never_taken", NumRegs: 1, Instrs: []isa.Instr{
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 3, Pred: isa.PT, PredNeg: true},
		{Op: isa.STS, Dst: isa.RZ, Src: [3]isa.Reg{isa.RZ, 0, isa.RZ}, Aux: 2, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	}}
	rs := races(Analyze(p, contract1D(64, 1), nil))
	if len(rs) != 1 || rs[0].Race != sim.RaceWW || rs[0].PC != 1 || rs[0].OtherPC != 1 {
		t.Fatalf("want one write-write race at the STS (pc 1), got %+v", rs)
	}
}

// TestNeverExecutedWrite: the @!PT instructions that would spread the
// store address over the threads never run, so every thread stores to
// sh[0] and the analysis must not prove the store race-free.
func TestNeverExecutedWrite(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	p := &isa.Program{Name: "never_executed", NumRegs: 2, Instrs: []isa.Instr{
		{Op: isa.MOV, Dst: 1, Src: rz, HasImm: true, Pred: isa.PT},
		{Op: isa.S2R, Dst: 1, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT, PredNeg: true},
		{Op: isa.SHL, Dst: 1, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Imm: 2, HasImm: true,
			Pred: isa.PT, PredNeg: true},
		{Op: isa.STS, Dst: isa.RZ, Src: [3]isa.Reg{1, 0, isa.RZ}, Aux: 2, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	}}
	if res := Analyze(p, contract1D(64, 1), nil); res.Clean() {
		t.Fatal("every thread stores to sh[0], yet the program was proved race-free")
	}
}

// TestStateWidthFromInstructions: the analysis sizes its states from
// the registers the instructions name, not from NumRegs. MOV R5, #7
// validates under NumRegs 1 (the register file is at least 8 wide) and
// must analyze clean; under NumRegs -1 Validate rejects the program,
// and the analysis of it still does not index past a state.
func TestStateWidthFromInstructions(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	for _, numRegs := range []int{1, -1} {
		p := &isa.Program{Name: fmt.Sprintf("mov_r5_regs%d", numRegs), NumRegs: numRegs, Instrs: []isa.Instr{
			{Op: isa.MOV, Dst: 5, Src: rz, Imm: 7, HasImm: true, Pred: isa.PT},
			{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
		}}
		if err := p.Validate(); (err == nil) != (numRegs >= 0) {
			t.Errorf("%s: Validate() = %v", p.Name, err)
		}
		res := Analyze(p, contract1D(64, 1), nil)
		if !res.Converged || !res.Clean() || res.SharedAccesses != 0 || res.Phases != 1 {
			t.Errorf("%s: converged=%v diags=%v accesses=%d phases=%d, want a clean one-phase result",
				p.Name, res.Converged, res.Diags, res.SharedAccesses, res.Phases)
		}
	}
}
