package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmi/internal/chaos"
	"lmi/internal/isa"
	"lmi/internal/lint"
	"lmi/internal/peval"
	"lmi/internal/workloads"
)

// renderDiags appends one audit run's complete diagnostic list: every
// field of every Diag, in order.
func renderDiags(b *strings.Builder, name, run string, diags []lint.Diag) {
	fmt.Fprintf(b, "%s %s: %d\n", name, run, len(diags))
	for _, d := range diags {
		fmt.Fprintf(b, "\t%s %d %s %s %q\n", d.Kind, d.Instr, d.Op, d.Reg, d.Detail)
	}
}

// auditDiags runs the two audits over every workload under tampering
// that makes them judge, and reject, real work:
//   - SpecializeAudit with the residual mutated at its midpoint;
//   - SpecializeAudit with the first transform's immediate forged;
//   - ElideAudit on the general program with the E bit set on every
//     extent-checked access the compiler left checked;
//   - SpecializeAudit with one anchor forged (forgedAnchors).
func auditDiags(t *testing.T) string {
	var b strings.Builder
	for _, s := range workloads.All() {
		res, err := s.Specialized()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		c := s.ConcreteContract()
		mutated := chaos.PlantSpecMutationAt(res.Residual, len(res.Residual.Instrs)/2)
		renderDiags(&b, s.Name, "spec-mutation", lint.SpecializeAudit(res.Original, mutated, res.Cert, c))

		forged := *res.Cert
		forged.Transforms = append([]peval.Transform(nil), res.Cert.Transforms...)
		if len(forged.Transforms) > 0 {
			forged.Transforms[0].Imm++
		}
		renderDiags(&b, s.Name, "spec-forged-imm", lint.SpecializeAudit(res.Original, res.Residual, &forged, c))

		all := &isa.Program{}
		*all = *res.Original
		all.Instrs = append([]isa.Instr(nil), res.Original.Instrs...)
		for _, i := range chaos.ElideSites(all) {
			all.Instrs[i].Hint.E = true
		}
		renderDiags(&b, s.Name, "elide-all", lint.ElideAudit(all, s.Contract()))

		for _, f := range forgedAnchors(t, res.Original, res.Cert) {
			renderDiags(&b, s.Name, "spec-forged-anchor "+f.run, lint.SpecializeAudit(res.Original, res.Residual, f.cert, c))
		}
	}
	return b.String()
}

// forgedCert is a certificate with one anchor moved.
type forgedCert struct {
	run  string
	cert *peval.Certificate
}

// forgedAnchors moves, one at a time, the anchors whose pcs the
// specialize audit's judges read to n/2 and to n, where n is the
// length of the replay program when that transform is judged (so n is
// out of range): the first in-place transform's PC, the first drop's
// PC, and the first unroll's Head, with its BodyStart four past it as
// the counted-loop shape requires. A certificate without such a
// transform contributes no run for it.
func forgedAnchors(t *testing.T, original *isa.Program, cert *peval.Certificate) []forgedCert {
	// The replay program's length before each transform.
	lens := make([]int, len(cert.Transforms))
	p := &isa.Program{}
	*p = *original
	p.Instrs = append([]isa.Instr(nil), original.Instrs...)
	prov := make([]int, len(p.Instrs))
	for i := range prov {
		prov[i] = i
	}
	for k, tr := range cert.Transforms {
		lens[k] = len(p.Instrs)
		q, pr, err := peval.ApplyTransform(p, prov, tr)
		if err != nil {
			t.Fatalf("%s: replay transform %d: %v", cert.Name, k, err)
		}
		p, prov = q, pr
	}

	var out []forgedCert
	forge := func(what string, k int, move func(tr *peval.Transform, to int)) {
		for _, at := range []struct {
			name string
			to   int
		}{{"n/2", lens[k] / 2}, {"n", lens[k]}} {
			f := *cert
			f.Transforms = append([]peval.Transform(nil), cert.Transforms...)
			move(&f.Transforms[k], at.to)
			out = append(out, forgedCert{fmt.Sprintf("%s@%s", what, at.name), &f})
		}
	}
	firstOf := func(match func(tr *peval.Transform) bool) int {
		for k := range cert.Transforms {
			if match(&cert.Transforms[k]) {
				return k
			}
		}
		return -1
	}
	if k := firstOf(func(tr *peval.Transform) bool {
		switch tr.Kind {
		case peval.TFoldConst, peval.TFoldImm, peval.TFoldSReg, peval.TFoldCount, peval.TSetElide:
			return true
		}
		return false
	}); k >= 0 {
		forge("pc", k, func(tr *peval.Transform, to int) { tr.PC = to })
	}
	if k := firstOf(func(tr *peval.Transform) bool { return tr.Kind == peval.TDrop && len(tr.Drops) > 0 }); k >= 0 {
		forge("drop", k, func(tr *peval.Transform, to int) {
			tr.Drops = append([]peval.Drop(nil), tr.Drops...)
			tr.Drops[0].PC = to
		})
	}
	if k := firstOf(func(tr *peval.Transform) bool { return tr.Kind == peval.TUnroll && tr.Unroll != nil }); k >= 0 {
		forge("unroll", k, func(tr *peval.Transform, to int) {
			u := *tr.Unroll
			u.Head, u.BodyStart = to, to+4
			tr.Unroll = &u
		})
	}
	return out
}

// TestAuditDiagsGolden pins every diagnostic the specialize and elide
// audits emit over the tampered corpus to testdata/audit_diags.golden,
// so a change to the audits' state layout or storage cannot move a
// single decision unseen. On a mismatch it reports the first differing
// line.
func TestAuditDiagsGolden(t *testing.T) {
	compareGolden(t, filepath.Join("testdata", "audit_diags.golden"), auditDiags(t))
}

// compareGolden fails t unless got equals the golden file at path,
// reporting the first differing line.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: diagnostics differ from the golden at line %d:\n  want %s\n  got  %s", path, i+1, w, g)
		}
	}
}
