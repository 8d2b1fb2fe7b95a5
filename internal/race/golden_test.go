package race_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lmi/internal/apps"
	"lmi/internal/bounds"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/race"
	"lmi/internal/workloads"
)

// renderResult appends one analysis's outcome: the convergence flag,
// the three counters and every diagnostic, sorted by its rendered line
// (two diagnostics of one kind at one pc are otherwise unordered).
func renderResult(b *strings.Builder, label string, res *race.Result) {
	fmt.Fprintf(b, "%s converged=%v accesses=%d pairs=%d phases=%d diags=%d\n",
		label, res.Converged, res.SharedAccesses, res.PairsTested, res.Phases, len(res.Diags))
	lines := make([]string, len(res.Diags))
	for i, d := range res.Diags {
		lines[i] = fmt.Sprintf("\t%s %s %d %d %d:%d %d:%d %q", d.Kind, d.Race, d.PC, d.OtherPC,
			d.Loc.Block, d.Loc.Index, d.OtherLoc.Block, d.OtherLoc.Index, d.Msg)
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// mutants applies every chaos race mutation at every site of p: a
// dropped barrier, a halved stride shift, a demoted shared atomic.
func mutants(p *isa.Program) (labels []string, progs []*isa.Program) {
	for _, i := range chaos.BarrierSites(p) {
		labels = append(labels, fmt.Sprintf("%s@%d", chaos.KindRaceDropBar, i))
		progs = append(progs, chaos.DropBarrierAt(p, i))
	}
	for _, i := range chaos.StrideSites(p) {
		labels = append(labels, fmt.Sprintf("%s@%d", chaos.KindRaceStridePerturb, i))
		progs = append(progs, chaos.PerturbStrideAt(p, i))
	}
	for _, i := range chaos.AtomicSharedSites(p) {
		labels = append(labels, fmt.Sprintf("%s@%d", chaos.KindRaceDemoteAtomic, i))
		progs = append(progs, chaos.DemoteAtomicAt(p, i))
	}
	return labels, progs
}

// raceResults analyzes one kernel's compilations: raw and optimized in
// both compile modes, the elided program raw and optimized, and every
// chaos race mutant of the LMI program.
func raceResults(t *testing.T, b *strings.Builder, name string, f *ir.Func, c bounds.Contract) {
	t.Helper()
	var lmi *isa.Program
	for _, mode := range []compiler.Mode{compiler.ModeBase, compiler.ModeLMI} {
		p, src, err := compiler.CompileWithSourceMap(f, mode)
		if err != nil {
			t.Fatalf("%s/%v: compile: %v", name, mode, err)
		}
		if mode == compiler.ModeLMI {
			lmi = p
		}
		renderResult(b, fmt.Sprintf("%s/%v/raw", name, mode), race.Analyze(p, c, src))
		renderResult(b, fmt.Sprintf("%s/%v/opt", name, mode), race.Analyze(compiler.Optimize(p), c, nil))
	}
	pe, esrc, _, err := compiler.CompileElidedWithSourceMap(f, c)
	if err != nil {
		t.Fatalf("%s/elide: compile: %v", name, err)
	}
	renderResult(b, name+"/elide/raw", race.Analyze(pe, c, esrc))
	renderResult(b, name+"/elide/opt", race.Analyze(compiler.Optimize(pe), c, nil))
	labels, progs := mutants(lmi)
	for i, q := range progs {
		renderResult(b, fmt.Sprintf("%s/%v/%s", name, compiler.ModeLMI, labels[i]), race.Analyze(q, c, nil))
	}
}

// raceGolden renders the analysis of the workload corpus, the apps and
// the race victim.
func raceGolden(t *testing.T) string {
	var b strings.Builder
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		raceResults(t, &b, s.Name, f, s.Contract())
	}
	fs, cs := apps.All(), apps.Contracts()
	for i, f := range fs {
		raceResults(t, &b, "app:"+f.Name, f, cs[i])
	}
	raceResults(t, &b, "victim", raceVictim(), bounds.Contract{CountParam: -1, BlockDimX: 64, GridDimX: 1})
	return b.String()
}

// raceVictim has the shape of the chaos campaign's synchronization
// victim, the one corpus kernel with a shared atomic: phase one stores
// sh[tid], a barrier, then phase two reads sh[tid+1] and adds it into
// sh[0] atomically.
func raceVictim() *ir.Func {
	b := ir.NewBuilder("race_victim")
	sh := b.Shared(65 * 4)
	tid := b.TID()
	b.Store(b.GEP(sh, tid, 4, 0), tid, 0)
	b.Barrier()
	v := b.Load(ir.I32, b.GEP(sh, b.Add(tid, b.ConstI(ir.I32, 1)), 4, 0), 0)
	b.AtomicAdd(sh, v, 0)
	return b.Finalize()
}

// TestRaceGolden pins every outcome of the race analysis over the
// corpus, the apps and their race mutants to testdata/race.golden:
// convergence, the access, pair and phase counts, and the full
// diagnostic list. A change to the analysis's state layout or storage
// must leave it byte-identical. On a mismatch it reports the first
// differing line.
func TestRaceGolden(t *testing.T) {
	got := raceGolden(t)
	path := filepath.Join("testdata", "race.golden")
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
			t.Fatalf("%s: race results differ from the golden at line %d:\n  want %s\n  got  %s", path, i+1, w, g)
		}
	}
}
