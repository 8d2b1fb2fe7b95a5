package lint

import (
	"fmt"
	"slices"
	"testing"

	"lmi/internal/apps"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/workloads"
)

// refLint is the per-instruction fixpoint the linter's run-head walk
// replaces: an entry state at every instruction, each popped
// instruction stepped from a copy of its own entry and its post-state
// joined into every successor's entry. It shares the transfer with the
// linter; only the state keeping differs. The reporting pass steps
// every instruction whose entry is not all-vBot.
func refLint(p *isa.Program, mode compiler.Mode) (entries []regState, diags []Diag, ptrNeed, reachable []bool) {
	n := len(p.Instrs)
	l := &linter{p: p, mode: mode, ptrNeed: make([]bool, n)}
	g := isa.NewCFG(p)
	entries = make([]regState, n)
	for i := range entries {
		entries[i] = make(regState, g.RegWidth())
	}
	reachable = make([]bool, n)
	if n == 0 {
		return entries, nil, l.ptrNeed, reachable
	}
	for r := range entries[0] {
		entries[0][r] = vData
	}
	work := newRefWork(n)
	work.Push(0)
	for i, ok := work.Pop(); ok; i, ok = work.Pop() {
		st := slices.Clone(entries[i])
		l.step(i, st, false)
		if in := &p.Instrs[i]; in.Pred != isa.PT || in.PredNeg {
			mergeInto(st, entries[i])
		}
		for _, e := range g.Succs(i) {
			if mergeInto(entries[e.To], st) {
				work.Push(e.To)
			}
		}
	}
	for i := range p.Instrs {
		if allBot(entries[i]) {
			continue
		}
		reachable[i] = true
		l.step(i, slices.Clone(entries[i]), true)
	}
	return entries, l.diags, l.ptrNeed, reachable
}

// allBot reports an all-vBot (unreached) state.
func allBot(st regState) bool {
	return !slices.ContainsFunc(st, func(v absVal) bool { return v != vBot })
}

// walkedStates returns the entry state the run-head walk holds at every
// instruction: the final walk's state from each reached run head's
// converged entry, all-vBot in an unreached run.
func walkedStates(l *linter) []regState {
	out := make([]regState, len(l.p.Instrs))
	for i := range out {
		out[i] = make(regState, isa.NewCFG(l.p).RegWidth())
	}
	l.fx.Final(func(pc int, st *regState) { copy(out[pc], *st) })
	return out
}

// diffLint describes the first difference between the run-head linter
// and the per-instruction reference over p: an entry state, a
// diagnostic, a ptrNeed or a reachable fact. It returns "" when the two
// agree.
func diffLint(p *isa.Program, mode compiler.Mode) string {
	refEntries, refDiags, refNeed, refReach := refLint(p, mode)
	for i, st := range walkedStates(analyze(p, mode)) {
		if !slices.Equal(st, refEntries[i]) {
			for r := range st {
				if st[r] != refEntries[i][r] {
					return fmt.Sprintf("pc %d (%s): R%d = %s, reference %s", i, &p.Instrs[i], r, st[r], refEntries[i][r])
				}
			}
		}
	}
	diags, need, reach := run(p, mode)
	switch {
	case !slices.Equal(diags, refDiags):
		return fmt.Sprintf("diagnostics %v, reference %v", diags, refDiags)
	case !slices.Equal(need, refNeed):
		return fmt.Sprintf("ptrNeed %v, reference %v", need, refNeed)
	case !slices.Equal(reach, refReach):
		return fmt.Sprintf("reachable %v, reference %v", reach, refReach)
	}
	return ""
}

// lintLoops are hand-written LMI programs whose loops make the run
// heads' entries grow across iterations.
func lintLoops(t *testing.T) []*isa.Program {
	t.Helper()
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	w64 := uint8(isa.AuxW64)

	// R1 = malloc; R2 = 0; loop: P0 = R2 < 4; @!P0 BRA out;
	// @P0 IADD.A R3 = R1 + R2; @P1 MOV R1 = R2; R2 += 1; BRA loop;
	// out: EXIT. The predicated MOV turns R1 from a pointer into a
	// conflict on the second trip, and the hinted IADD reads it.
	predLoop := &isa.Program{Name: "pred_in_loop", NumRegs: 4, Instrs: []isa.Instr{
		{Op: isa.MALLOC, Dst: 1, Src: rz, Pred: isa.PT},
		{Op: isa.MOV, Dst: 2, Src: rz, HasImm: true, Pred: isa.PT},
		{Op: isa.SETP, Dst: 0, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Imm: 4, HasImm: true, Aux: uint8(isa.CmpLT), Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 8, Pred: 0, PredNeg: true},
		{Op: isa.IADD, Dst: 3, Src: [3]isa.Reg{1, 2, isa.RZ}, Aux: w64, Hint: isa.Hint{A: true}, Pred: 0},
		{Op: isa.MOV, Dst: 1, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Aux: w64, Pred: 1},
		{Op: isa.IADD, Dst: 2, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Imm: 1, HasImm: true, Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 2, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	}}

	// R1 = malloc; R2 = tid; loop: P0 = R2 >= 16; FREE R1;
	// @P0 EXIT; SHL R1 #5; SHR R1 #5; @P1 R1 = malloc; R2 += 32;
	// BRA loop. The predicated EXIT sits mid-run with a freed,
	// un-nullified pointer live, and the loop head's entry joins the
	// first allocation with the maybe-nullified pointer of the back edge.
	exitLoop := &isa.Program{Name: "exit_mid_run", NumRegs: 3, Instrs: []isa.Instr{
		{Op: isa.MALLOC, Dst: 1, Src: rz, Pred: isa.PT},
		{Op: isa.S2R, Dst: 2, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT},
		{Op: isa.SETP, Dst: 0, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Imm: 16, HasImm: true, Aux: uint8(isa.CmpGE), Pred: isa.PT},
		{Op: isa.FREE, Dst: isa.RZ, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: 0},
		{Op: isa.SHL, Dst: 1, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Imm: 5, HasImm: true, Aux: w64, Pred: isa.PT},
		{Op: isa.SHR, Dst: 1, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Imm: 5, HasImm: true, Aux: w64, Pred: isa.PT},
		{Op: isa.MALLOC, Dst: 1, Src: rz, Pred: 1},
		{Op: isa.IADD, Dst: 2, Src: [3]isa.Reg{2, isa.RZ, isa.RZ}, Imm: 32, HasImm: true, Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 2, Pred: isa.PT},
	}}

	progs := []*isa.Program{predLoop, exitLoop}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	return progs
}

// TestLintRunHeadEqualsPerInstruction checks the linter's run-head walk
// against the per-instruction reference: the entry state at every
// instruction, the diagnostics, ptrNeed and reachable must all agree,
// over the corpus (both modes, raw and optimized), every chaos lint
// mutant of each LMI compile, and the hand-written loops.
func TestLintRunHeadEqualsPerInstruction(t *testing.T) {
	var kernels []*ir.Func
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		kernels = append(kernels, f)
	}
	kernels = append(kernels, apps.All()...)

	type prog struct {
		name string
		p    *isa.Program
		mode compiler.Mode
	}
	var progs []prog
	for _, f := range kernels {
		for _, mode := range []compiler.Mode{compiler.ModeBase, compiler.ModeLMI} {
			p, err := compiler.Compile(f, mode)
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", f.Name, mode, err)
			}
			progs = append(progs, prog{fmt.Sprintf("%s/%v", f.Name, mode), p, mode},
				prog{fmt.Sprintf("%s/%v/opt", f.Name, mode), compiler.Optimize(p), mode})
			if mode != compiler.ModeLMI {
				continue
			}
			for _, i := range chaos.HintedSites(p) {
				progs = append(progs, prog{fmt.Sprintf("%s/drop-hint@%d", f.Name, i), chaos.DropHintAt(p, i), mode})
			}
			for _, i := range chaos.SpuriousSites(p) {
				progs = append(progs, prog{fmt.Sprintf("%s/spurious-hint@%d", f.Name, i), chaos.PlantSpuriousHintAt(p, i), mode})
			}
			if q := chaos.StripNullification(p); q != nil {
				progs = append(progs, prog{f.Name + "/strip-nullify", q, mode})
			}
		}
	}
	for _, p := range lintLoops(t) {
		progs = append(progs, prog{p.Name, p, compiler.ModeLMI})
	}

	instrs, heads := 0, 0
	for _, pr := range progs {
		if diff := diffLint(pr.p, pr.mode); diff != "" {
			t.Errorf("%s: %s", pr.name, diff)
		}
		switch pr.name {
		case "pred_in_loop":
			if st := walkedStates(analyze(pr.p, pr.mode)); st[4][1] != vConflict {
				t.Errorf("%s: R1 at the hinted IADD holds %s; the back edge does not widen it", pr.name, st[4][1])
			}
		case "exit_mid_run":
			if !hasDiag(Check(pr.p, pr.mode), KindMissingNullify, 4) {
				t.Errorf("%s: no missing-nullify diagnostic at the mid-run EXIT", pr.name)
			}
		}
		instrs += len(pr.p.Instrs)
		g := isa.NewCFG(pr.p)
		for pc := range pr.p.Instrs {
			if g.RunHead(pc) {
				heads++
			}
		}
	}
	t.Logf("%d programs, %d instructions, %d run heads", len(progs), instrs, heads)
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
