package lint_test

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"lmi/internal/apps"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/lint"
	"lmi/internal/workloads"
)

// lintMutants is one chaos lint mutation family over an LMI program:
// every mutant in site order, named by the site it tampers (or -1 for
// a whole-program mutation).
type lintMutants struct {
	kind   string
	sites  []int
	mutate func(site int) *isa.Program
}

func lintMutantFamilies(p *isa.Program) []lintMutants {
	return []lintMutants{
		{"drop-hint", chaos.HintedSites(p), func(i int) *isa.Program { return chaos.DropHintAt(p, i) }},
		{"spurious-hint", chaos.SpuriousSites(p), func(i int) *isa.Program { return chaos.PlantSpuriousHintAt(p, i) }},
		{"strip-nullify", []int{-1}, func(int) *isa.Program { return chaos.StripNullification(p) }},
	}
}

// lintDiags renders the linter's diagnostics over the corpus's LMI
// programs (CheckWithSource on each compile, Check on its Optimize
// output) and over every chaos lint mutant of each compile (Check and
// CheckWithSource). Clean programs and every mutant contribute a count
// line; the first mutant of each family contributes every diagnostic,
// and each family a SHA-256 digest over the full rendering of all its
// mutants, so every field of every Diag is pinned in a small file.
func lintDiags(t *testing.T) string {
	var kernels []*ir.Func
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		kernels = append(kernels, f)
	}
	kernels = append(kernels, apps.All()...)

	var b strings.Builder
	for _, f := range kernels {
		p, src, err := compiler.CompileWithSourceMap(f, compiler.ModeLMI)
		if err != nil {
			t.Fatalf("%s: compile: %v", f.Name, err)
		}
		renderDiags(&b, f.Name, "lmi", lint.CheckWithSource(p, compiler.ModeLMI, src))
		renderDiags(&b, f.Name, "lmi+O", lint.Check(compiler.Optimize(p), compiler.ModeLMI))
		for _, fam := range lintMutantFamilies(p) {
			var full, counts strings.Builder
			first, n := "", 0
			for _, site := range fam.sites {
				q := fam.mutate(site)
				if q == nil {
					continue
				}
				var one strings.Builder
				run := fmt.Sprintf("%s@%d", fam.kind, site)
				check, withSrc := lint.Check(q, compiler.ModeLMI), lint.CheckWithSource(q, compiler.ModeLMI, src)
				renderDiags(&one, f.Name, run+" check", check)
				renderDiags(&one, f.Name, run+" check-src", withSrc)
				if n == 0 {
					first = one.String()
				}
				full.WriteString(one.String())
				fmt.Fprintf(&counts, "\t%s %d %d\n", run, len(check), len(withSrc))
				n++
			}
			fmt.Fprintf(&b, "%s %s: %d mutants, sha256 %x\n", f.Name, fam.kind, n, sha256.Sum256([]byte(full.String())))
			b.WriteString(counts.String())
			b.WriteString(first)
		}
	}
	return b.String()
}

// TestLintDiagsGolden pins the linter's decisions over the corpus and
// its chaos lint mutants to testdata/lint_diags.golden, so a change to
// the linter's state layout or storage cannot move a single diagnostic
// unseen. On a mismatch it reports the first differing line.
func TestLintDiagsGolden(t *testing.T) {
	compareGolden(t, filepath.Join("testdata", "lint_diags.golden"), lintDiags(t))
}
