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
//     extent-checked access the compiler left checked.
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
	}
	return b.String()
}

// TestAuditDiagsGolden pins every diagnostic the specialize and elide
// audits emit over the tampered corpus to testdata/audit_diags.golden,
// so a change to the audits' state layout or storage cannot move a
// single decision unseen. On a mismatch it reports the first differing
// line.
func TestAuditDiagsGolden(t *testing.T) {
	got := auditDiags(t)
	path := filepath.Join("testdata", "audit_diags.golden")
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
			t.Fatalf("%s: audit diagnostics differ from the golden at line %d:\n  want %s\n  got  %s", path, i+1, w, g)
		}
	}
}
