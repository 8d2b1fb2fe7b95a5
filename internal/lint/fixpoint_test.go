package lint

import (
	"fmt"
	"slices"
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/isa"
	"lmi/internal/peval"
	"lmi/internal/workloads"
)

// diffState describes how a judged state got differs from a reference
// state want at pc, or returns "". A kept state may be wider than the
// reference (a fold only removes register names); its extra registers
// must be unknown.
func diffState(pc int, got, want *scState) string {
	if got.pk != want.pk || got.pv != want.pv {
		return fmt.Sprintf("pc %d: predicate facts %v/%v, want %v/%v", pc, got.pk, got.pv, want.pk, want.pv)
	}
	if len(got.regs) < len(want.regs) {
		return fmt.Sprintf("pc %d: state %d registers wide, want at least %d", pc, len(got.regs), len(want.regs))
	}
	for r, v := range got.regs {
		var wv scVal
		if r < len(want.regs) {
			wv = want.regs[r]
		}
		if v != wv {
			return fmt.Sprintf("pc %d: R%d = %+v, want %+v", pc, r, v, wv)
		}
	}
	return ""
}

// refConst is the per-instruction fixpoint the constant analysis's
// run-head walk replaces: an in-state at every instruction, each
// popped instruction transferred from its own in-state and its
// post-state met into every successor reached by a live edge. It
// shares the transfer and the edge liveness with the analysis; only
// the state keeping differs.
type refConst struct {
	in      []scState
	reached []bool
}

func refAnalyze(p *isa.Program, c bounds.Contract) *refConst {
	a := &scAnalysis{p: p, g: isa.NewCFG(p)}
	n, w := len(p.Instrs), a.g.RegWidth()
	d := scDimsOf(c)
	r := &refConst{in: make([]scState, n), reached: make([]bool, n)}
	for i := range r.in {
		r.in[i].regs = make([]scVal, w)
	}
	if n == 0 {
		return r
	}
	st, out := scState{regs: make([]scVal, w)}, scState{regs: make([]scVal, w)}
	work := newRefWork(n)
	work.Push(0)
	scEntryState(&r.in[0])
	r.reached[0] = true
	for i, ok := work.Pop(); ok; i, ok = work.Pop() {
		st.copyFrom(&r.in[i])
		out.copyFrom(&st)
		scTransfer(p, c, d, i, &out)
		for _, e := range a.g.Succs(i) {
			if !a.live(i, e, &st) {
				continue
			}
			if !r.reached[e.To] {
				r.reached[e.To] = true
				r.in[e.To].copyFrom(&out)
				work.Push(e.To)
			} else if r.in[e.To].meet(&out) {
				work.Push(e.To)
			}
		}
	}
	return r
}

// walkedConst returns the in-state the run-head analysis a implies at
// every instruction of its current program: the final walk's state,
// each reached run walked from its head's entry and stopped where a
// dead edge leaves a predicated EXIT; nil registers where the walk
// does not reach.
func walkedConst(a *scAnalysis) []scState {
	out := make([]scState, len(a.p.Instrs))
	a.fx.Final(func(pc int, st *scState) {
		out[pc] = scState{regs: slices.Clone(st.regs), pk: st.pk, pv: st.pv}
	})
	return out
}

// diffConstRef describes the first difference between the analysis a
// judge reads and the per-instruction reference over a's current
// program: a reached flag, an in-state the run heads imply, or a kept
// in-state. It returns "" when the two agree.
func diffConstRef(a *scAnalysis) string {
	ref := refAnalyze(a.p, a.c)
	walked := walkedConst(a)
	for i := range a.p.Instrs {
		if a.seen[i] != ref.reached[i] {
			return fmt.Sprintf("pc %d: reached %v, reference %v", i, a.seen[i], ref.reached[i])
		}
		if !ref.reached[i] {
			continue
		}
		if walked[i].regs == nil {
			return fmt.Sprintf("pc %d: reached, but the walk from its run head stops before it", i)
		}
		if msg := diffState(i, &walked[i], &ref.in[i]); msg != "" {
			return "walked " + msg
		}
		if st := a.fx.Kept(i); st != nil {
			if msg := diffState(i, st, &ref.in[i]); msg != "" {
				return "kept " + msg
			}
		}
	}
	return ""
}

// diffKeptFresh describes the first difference between the analysis a
// judge reads (got) and a fresh analysis of the same program and log
// (want): the CFG's edges, the reached flags, and the in-state at every
// pc the fresh analysis keeps, which got must keep too. It returns ""
// when the two agree.
func diffKeptFresh(got, want *scAnalysis) string {
	if len(got.p.Instrs) != len(want.p.Instrs) {
		return fmt.Sprintf("%d instructions analyzed, want %d", len(got.p.Instrs), len(want.p.Instrs))
	}
	for i := range want.p.Instrs {
		if !slices.Equal(got.g.Succs(i), want.g.Succs(i)) || !slices.Equal(got.g.Preds(i), want.g.Preds(i)) {
			return fmt.Sprintf("pc %d: CFG edges differ", i)
		}
		if got.seen[i] != want.seen[i] {
			return fmt.Sprintf("pc %d: reached %v, want %v", i, got.seen[i], want.seen[i])
		}
		w := want.fx.Kept(i)
		if !want.seen[i] || w == nil {
			continue
		}
		g := got.fx.Kept(i)
		if g == nil {
			return fmt.Sprintf("pc %d: no state kept where a fresh analysis keeps one", i)
		}
		if msg := diffState(i, g, w); msg != "" {
			return msg
		}
	}
	return ""
}

// replayJudged replays log from original as SpecializeAudit does,
// keeping the analysis wherever keepsFixpoint says so, and calls check
// with the analysis each transform is judged against, before the
// judge. It returns how many transforms were judged against a kept
// analysis.
func replayJudged(original *isa.Program, log []peval.Transform, c bounds.Contract, check func(k int, p *isa.Program, a *scAnalysis)) (kept int) {
	a := &scAnalysis{}
	p := &isa.Program{}
	*p = *original
	p.Instrs = append([]isa.Instr(nil), original.Instrs...)
	prov := make([]int, len(p.Instrs))
	for i := range prov {
		prov[i] = i
	}
	stale := true
	for k, tr := range log {
		if stale {
			a.analyze(p, c, log[k:])
		} else {
			kept++
		}
		check(k, p, a)
		_, sound := judgeTransform(p, a, tr, c)
		q, pr, err := peval.ApplyTransform(p, prov, tr)
		if err != nil {
			break
		}
		p, prov = q, pr
		stale = !keepsFixpoint(tr, sound)
	}
	return kept
}

// specLog is one certificate's log with what its replay starts from.
type specLog struct {
	name     string
	original *isa.Program
	log      []peval.Transform
	c        bounds.Contract
}

// specLogs returns every corpus certificate's log as shipped, and again
// with its first transform's immediate forged (the case the audit
// golden pins), so the replay also runs past a transform judged
// unsound.
func specLogs(t *testing.T) []specLog {
	t.Helper()
	var out []specLog
	for _, s := range workloads.All() {
		res, err := s.Specialized()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		forged := append([]peval.Transform(nil), res.Cert.Transforms...)
		if len(forged) > 0 {
			forged[0].Imm++
		}
		c := s.ConcreteContract()
		out = append(out, specLog{s.Name, res.Original, res.Cert.Transforms, c},
			specLog{s.Name + " (forged)", res.Original, forged, c})
	}
	return out
}

// TestKeptFixpointEqualsFresh checks the specialize audit's reuse rule
// over the corpus: at every transform, the analysis the judge reads
// must agree with a fresh analysis of the same replay program and the
// rest of the log at every pc the fresh analysis keeps.
func TestKeptFixpointEqualsFresh(t *testing.T) {
	kept := 0
	for _, sl := range specLogs(t) {
		kept += replayJudged(sl.original, sl.log, sl.c, func(k int, p *isa.Program, a *scAnalysis) {
			fresh := &scAnalysis{}
			fresh.analyze(p, sl.c, sl.log[k:])
			if msg := diffKeptFresh(a, fresh); msg != "" {
				t.Fatalf("%s: transform %d (%s at pc %d): the judged analysis differs from a fresh one: %s",
					sl.name, k, sl.log[k].Kind, sl.log[k].PC, msg)
			}
		})
	}
	if kept == 0 {
		t.Fatal("no transform was judged against a kept analysis")
	}
	t.Logf("%d transforms judged against a kept analysis", kept)
}

// constLoops are hand-written programs whose loops make the run heads'
// in-states lose facts across iterations.
func constLoops(t *testing.T) []*isa.Program {
	t.Helper()
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	src := func(r isa.Reg) [3]isa.Reg { return [3]isa.Reg{r, isa.RZ, isa.RZ} }

	// R1 = 0; R2 = 5; R3 = tid; P1 = R3 < 16; loop: P0 = R1 < 4;
	// @!P0 BRA out; @P1 MOV R2 = 5; @P1 IADD R1 += 1; BRA loop;
	// out: EXIT. The predicated MOV keeps R2 (same value), the
	// predicated IADD loses R1 on the back edge.
	predLoop := &isa.Program{Name: "pred_in_loop", NumRegs: 4, Instrs: []isa.Instr{
		{Op: isa.MOV, Dst: 1, Src: rz, HasImm: true, Pred: isa.PT},
		{Op: isa.MOV, Dst: 2, Src: rz, Imm: 5, HasImm: true, Pred: isa.PT},
		{Op: isa.S2R, Dst: 3, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT},
		{Op: isa.SETP, Dst: 1, Src: src(3), Imm: 16, HasImm: true, Aux: uint8(isa.CmpLT), Pred: isa.PT},
		{Op: isa.SETP, Dst: 0, Src: src(1), Imm: 4, HasImm: true, Aux: uint8(isa.CmpLT), Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 9, Pred: 0, PredNeg: true},
		{Op: isa.MOV, Dst: 2, Src: rz, Imm: 5, HasImm: true, Pred: 1},
		{Op: isa.IADD, Dst: 1, Src: src(1), Imm: 1, HasImm: true, Pred: 1},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 4, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	}}

	// R3 = tid; R1 = 0; P1 = R3 < 16; @P1 BRA side; loop: P0 = R1 == 0;
	// @P0 EXIT; P2 = RZ == 0; @P2 EXIT; R2 = R1 + 1; EXIT; side: R1 = 1;
	// BRA loop. The loop head is walked first with R1 = 0, where the
	// first mid-run EXIT is always taken and the rest of the run
	// unreached; the back edge from side then loses R1 and the walk
	// reaches the second mid-run EXIT, which is always taken, so the
	// IADD after it stays unreached.
	exitLoop := &isa.Program{Name: "exit_mid_run", NumRegs: 4, Instrs: []isa.Instr{
		{Op: isa.S2R, Dst: 3, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT},
		{Op: isa.MOV, Dst: 1, Src: rz, HasImm: true, Pred: isa.PT},
		{Op: isa.SETP, Dst: 1, Src: src(3), Imm: 16, HasImm: true, Aux: uint8(isa.CmpLT), Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 10, Pred: 1},
		{Op: isa.SETP, Dst: 0, Src: src(1), HasImm: true, Aux: uint8(isa.CmpEQ), Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: 0},
		{Op: isa.SETP, Dst: 2, Src: rz, HasImm: true, Aux: uint8(isa.CmpEQ), Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: 2},
		{Op: isa.IADD, Dst: 2, Src: src(1), Imm: 1, HasImm: true, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
		{Op: isa.MOV, Dst: 1, Src: rz, Imm: 1, HasImm: true, Pred: isa.PT},
		{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 4, Pred: isa.PT},
	}}

	progs := []*isa.Program{predLoop, exitLoop}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	return progs
}

// TestConstRunHeadEqualsPerInstruction checks the constant analysis's
// run-head walk against the per-instruction reference. At every replay
// step of every corpus certificate (shipped and forged), the analysis
// the judge reads must agree with the reference over the current
// replay program on every reached flag, on the in-state its run heads
// imply at every reached instruction, and on every kept in-state. The
// hand-written loops are analyzed with a state kept at every pc.
func TestConstRunHeadEqualsPerInstruction(t *testing.T) {
	steps, states := 0, 0
	for _, sl := range specLogs(t) {
		replayJudged(sl.original, sl.log, sl.c, func(k int, p *isa.Program, a *scAnalysis) {
			if msg := diffConstRef(a); msg != "" {
				t.Fatalf("%s: transform %d (%s at pc %d): %s", sl.name, k, sl.log[k].Kind, sl.log[k].PC, msg)
			}
			steps++
			for i := range a.p.Instrs {
				if a.seen[i] {
					states++
				}
			}
		})
	}
	for _, p := range constLoops(t) {
		everyPC := make([]peval.Transform, len(p.Instrs))
		for i := range everyPC {
			everyPC[i] = peval.Transform{Kind: peval.TFoldConst, PC: i}
		}
		a := &scAnalysis{}
		a.analyze(p, bounds.Contract{}, everyPC)
		if msg := diffConstRef(a); msg != "" {
			t.Errorf("%s: %s", p.Name, msg)
		}
		if p.Name == "exit_mid_run" && (!a.seen[6] || a.seen[8]) {
			t.Errorf("%s: reached %v; want the instruction after the first mid-run EXIT reached, the one after the second not",
				p.Name, walkedConst(a))
		}
	}
	t.Logf("%d replay steps, %d reached in-states compared", steps, states)
}
