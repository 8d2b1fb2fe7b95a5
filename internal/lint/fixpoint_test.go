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

// diffAnalyses describes the first difference between the analysis a
// judge reads (got) and a fresh analysis of the same program (want):
// the CFG's edges, the reached flags and every reached in-state. A kept
// state may be wider than a fresh one; its extra registers must be
// unknown. It returns "" when the two agree.
func diffAnalyses(got, want *scAnalysis) string {
	if len(got.reached) != len(want.reached) {
		return fmt.Sprintf("%d instructions analyzed, want %d", len(got.reached), len(want.reached))
	}
	for i := range want.reached {
		if !slices.Equal(got.g.Succs(i), want.g.Succs(i)) || !slices.Equal(got.g.Preds(i), want.g.Preds(i)) {
			return fmt.Sprintf("pc %d: CFG edges differ", i)
		}
		if got.reached[i] != want.reached[i] {
			return fmt.Sprintf("pc %d: reached %v, want %v", i, got.reached[i], want.reached[i])
		}
		if !want.reached[i] {
			continue
		}
		g, w := &got.in[i], &want.in[i]
		if g.pk != w.pk || g.pv != w.pv {
			return fmt.Sprintf("pc %d: predicate facts %v/%v, want %v/%v", i, g.pk, g.pv, w.pk, w.pv)
		}
		if len(g.regs) < len(w.regs) {
			return fmt.Sprintf("pc %d: state %d registers wide, want at least %d", i, len(g.regs), len(w.regs))
		}
		for r, v := range g.regs {
			var wv scVal
			if r < len(w.regs) {
				wv = w.regs[r]
			}
			if v != wv {
				return fmt.Sprintf("pc %d: R%d = %+v, want %+v", i, r, v, wv)
			}
		}
	}
	return ""
}

// replayAgainstFresh replays log from original as SpecializeAudit
// does, keeping the analysis wherever keepsFixpoint says so, and fails
// t at the first transform whose judged analysis differs from a fresh
// one. It returns how many transforms were judged against a kept
// analysis.
func replayAgainstFresh(t *testing.T, name string, original *isa.Program, log []peval.Transform, c bounds.Contract) (kept int) {
	t.Helper()
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
			a.analyze(p, c)
		} else {
			kept++
		}
		fresh := &scAnalysis{}
		fresh.analyze(p, c)
		if msg := diffAnalyses(a, fresh); msg != "" {
			t.Fatalf("%s: transform %d (%s at pc %d): the judged analysis differs from a fresh one: %s",
				name, k, tr.Kind, tr.PC, msg)
		}
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

// TestKeptFixpointEqualsFresh checks the specialize audit's reuse rule
// over the corpus: every certificate is replayed as shipped, and again
// with its first transform's immediate forged (the case the audit
// golden pins), so the replay also runs past a transform judged
// unsound. At every transform the analysis the judge reads must equal
// a fresh analysis of the same replay program.
func TestKeptFixpointEqualsFresh(t *testing.T) {
	kept := 0
	for _, s := range workloads.All() {
		res, err := s.Specialized()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		c := s.ConcreteContract()
		forged := append([]peval.Transform(nil), res.Cert.Transforms...)
		if len(forged) > 0 {
			forged[0].Imm++
		}
		kept += replayAgainstFresh(t, s.Name, res.Original, res.Cert.Transforms, c)
		kept += replayAgainstFresh(t, s.Name+" (forged)", res.Original, forged, c)
	}
	if kept == 0 {
		t.Fatal("no transform was judged against a kept analysis")
	}
	t.Logf("%d transforms judged against a kept analysis", kept)
}
