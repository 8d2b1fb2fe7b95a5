package experiments

import (
	"math"
	"strings"
	"testing"

	"lmi/internal/sectest"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// TestHaltedNoFaultGuard is the fault-guard regression test: a kernel
// that halts with an *empty* fault slice must surface a descriptive
// error. The seed harness indexed st.Faults[0] unconditionally on this
// path and panicked.
func TestHaltedNoFaultGuard(t *testing.T) {
	err := cleanStats("bench", workloads.VariantLMI, &sim.KernelStats{Halted: true})
	if err == nil || !strings.Contains(err.Error(), "halted with no recorded fault") {
		t.Errorf("halted-no-fault err = %v", err)
	}
	if !strings.Contains(err.Error(), "bench/lmi") {
		t.Errorf("error does not name the run: %v", err)
	}
	err = cleanStats("bench", workloads.VariantLMI, &sim.KernelStats{
		Halted: true,
		Faults: []sim.FaultRecord{{SM: 1, Warp: 2, Lane: 3, PC: 4}},
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected fault") {
		t.Errorf("faulting err = %v", err)
	}
	// Faults recorded without a halt (HaltOnFault=false) are still an
	// experiment failure.
	err = cleanStats("bench", workloads.VariantBase, &sim.KernelStats{
		Faults: []sim.FaultRecord{{}},
	})
	if err == nil {
		t.Error("unhalted faults accepted")
	}
	if err := cleanStats("bench", workloads.VariantBase, &sim.KernelStats{}); err != nil {
		t.Errorf("clean stats rejected: %v", err)
	}
}

// TestUndefinedGeomeanRendersNA: summary rows must print "n/a" for an
// undefined geomean instead of presenting NaN or 0 as a slowdown ratio.
func TestUndefinedGeomeanRendersNA(t *testing.T) {
	r12 := &Fig12Result{
		Rows:      []Fig12Row{{Name: "x", Suite: "s", Baseline: 1, Baggy: 1, GPUShield: 1, LMI: 1}},
		BaggyMean: math.NaN(), GPUShieldMean: math.NaN(), LMIMean: math.NaN(),
	}
	if !strings.Contains(r12.Table(), "n/a") {
		t.Errorf("Fig12 table renders NaN geomean:\n%s", r12.Table())
	}
	if strings.Contains(r12.Table(), "NaN") {
		t.Errorf("Fig12 table leaks NaN:\n%s", r12.Table())
	}
	r13 := &Fig13Result{LMIDBIMean: math.NaN(), MemcheckMean: math.NaN()}
	if !strings.Contains(r13.Table(), "n/a") || strings.Contains(r13.Table(), "NaN") {
		t.Errorf("Fig13 table:\n%s", r13.Table())
	}
	if !math.IsNaN(checkedMean(nil)) || !math.IsNaN(checkedMean([]float64{1, 0})) {
		t.Error("checkedMean should be NaN for empty / non-positive input")
	}
	if got := checkedMean([]float64{2, 8}); got != 4 {
		t.Errorf("checkedMean([2 8]) = %v, want 4", got)
	}
}

// TestFig01Deterministic: the parallel sweep renders byte-identically to
// the sequential one (the tentpole guarantee at the experiment level).
func TestFig01Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("double sweep in -short mode")
	}
	cfg := sim.ScaledConfig(2)
	seq, err := Fig01Jobs(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig01Jobs(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Table() != par.Table() {
		t.Errorf("parallel Fig. 1 differs from sequential:\n--- seq\n%s\n--- par\n%s",
			seq.Table(), par.Table())
	}
	if seq.Report == nil || par.Report == nil || par.Report.Workers != 4 {
		t.Error("sweep reports missing or mis-sized")
	}
}

// TestFig12Shape asserts the Fig. 12 reproduction bands: LMI near-zero,
// GPUShield low with needle/LSTM as its largest overheads, Baggy high
// with its peak on the compute-bound gaussian.
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 12 sweep in -short mode")
	}
	res, err := Fig12(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkCycleGolden(t, "fig12_cycle_stats", res.Report)
	if len(res.Rows) != 28 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Ordering: LMI < GPUShield < Baggy on geomean.
	if !(res.LMIMean < res.GPUShieldMean && res.GPUShieldMean < res.BaggyMean) {
		t.Errorf("geomean ordering violated: lmi=%.4f gpushield=%.4f baggy=%.4f",
			res.LMIMean, res.GPUShieldMean, res.BaggyMean)
	}
	// LMI: negligible overhead (paper: 0.22%; we allow the simulation
	// noise band).
	if res.LMIMean > 1.02 {
		t.Errorf("LMI geomean %.4f, want < 1.02", res.LMIMean)
	}
	// GPUShield: low average, clear outliers on needle and LSTM.
	if res.GPUShieldMean > 1.05 {
		t.Errorf("GPUShield geomean %.4f, want < 1.05", res.GPUShieldMean)
	}
	byName := map[string]Fig12Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	if byName["needle"].GPUShield < 1.08 || byName["LSTM"].GPUShield < 1.15 {
		t.Errorf("GPUShield outliers too small: needle=%.3f LSTM=%.3f (paper: 1.425, 1.24)",
			byName["needle"].GPUShield, byName["LSTM"].GPUShield)
	}
	// Baggy: large overhead, peak on gaussian (paper: 87%% avg, 503%% peak).
	if res.BaggyMean < 1.4 || res.BaggyMean > 2.3 {
		t.Errorf("Baggy geomean %.4f, want in [1.4, 2.3]", res.BaggyMean)
	}
	if res.BaggyPeak < 3.5 {
		t.Errorf("Baggy peak %.2f, want > 3.5 (compute-bound)", res.BaggyPeak)
	}
	if byName["gaussian"].Baggy != res.BaggyPeak {
		t.Errorf("Baggy peak should be gaussian, got %.2f there", byName["gaussian"].Baggy)
	}
	if !strings.Contains(res.Table(), "GEOMEAN") {
		t.Error("table rendering")
	}
}

// TestFig13SubsetShape asserts the DBI comparison on a representative
// subset (the bench harness runs all 24): both tools are tens-of-times
// slowdowns, LMI-DBI exceeds memcheck, and gaussian is memcheck's best
// relative case (its checks concentrate on non-memory instructions).
func TestFig13SubsetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("DBI sweep in -short mode")
	}
	var subset []*workloads.Spec
	for _, name := range []string{"gaussian", "swin", "nn", "backprop"} {
		subset = append(subset, workloads.ByName(name))
	}
	res, err := Fig13For(subset, SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkCycleGolden(t, "fig13_subset_cycle_stats", res.Report)
	if res.LMIDBIMean < 20 {
		t.Errorf("LMI-DBI geomean %.1f, want tens of times", res.LMIDBIMean)
	}
	if res.MemcheckMean < 5 {
		t.Errorf("memcheck geomean %.1f, want > 5", res.MemcheckMean)
	}
	if res.LMIDBIMean <= res.MemcheckMean {
		t.Errorf("LMI-DBI (%.1f) should exceed memcheck (%.1f) on average",
			res.LMIDBIMean, res.MemcheckMean)
	}
	byName := map[string]Fig13Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	g, sw := byName["gaussian"], byName["swin"]
	// The crossover logic of §XI-B: gaussian's check/LDST ratio is far
	// higher than swin's, and the LMI-DBI:memcheck gap tracks it.
	if g.CheckLDSTRatio <= sw.CheckLDSTRatio {
		t.Errorf("check/LDST: gaussian %.1f should exceed swin %.1f",
			g.CheckLDSTRatio, sw.CheckLDSTRatio)
	}
	if g.LMIDBI/g.Memcheck <= sw.LMIDBI/sw.Memcheck {
		t.Errorf("gaussian should be memcheck's best relative case: %.1f vs %.1f",
			g.LMIDBI/g.Memcheck, sw.LMIDBI/sw.Memcheck)
	}
	if !strings.Contains(res.Table(), "GEOMEAN") {
		t.Error("table rendering")
	}
}

// TestFig01Shape asserts the Fig. 1 anchors: bert/decoding global-heavy,
// lud_cuda/needle >80% shared.
func TestFig01Shape(t *testing.T) {
	res, err := Fig01(SimConfig())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig01Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.Global+r.Shared+r.Local < 0.999 || r.Global+r.Shared+r.Local > 1.001 {
			t.Errorf("%s: shares do not sum to 1", r.Name)
		}
	}
	for _, n := range []string{"bert", "decoding"} {
		if byName[n].Global < 0.9 {
			t.Errorf("%s global share %.2f, want > 0.9", n, byName[n].Global)
		}
	}
	for _, n := range []string{"lud_cuda", "needle"} {
		if byName[n].Shared < 0.8 {
			t.Errorf("%s shared share %.2f, want > 0.8 (paper: over 80%%)", n, byName[n].Shared)
		}
	}
	for _, n := range []string{"particlefilter_float", "lavaMD"} {
		if byName[n].Local <= 0 {
			t.Errorf("%s local share should be nonzero", n)
		}
	}
	if !strings.Contains(res.Table(), "benchmark") {
		t.Error("table rendering")
	}
}

// TestFig04Shape asserts the Fig. 4 anchors.
func TestFig04Shape(t *testing.T) {
	res, err := Fig04()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig04Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	if byName["hotspot"].Overhead > 0.01 || byName["srad_v1"].Overhead > 0.01 {
		t.Error("hotspot/srad should have negligible fragmentation")
	}
	if math.Abs(byName["backprop"].Overhead-0.859) > 0.05 {
		t.Errorf("backprop overhead %.3f, paper 0.859", byName["backprop"].Overhead)
	}
	if math.Abs(byName["needle"].Overhead-0.929) > 0.05 {
		t.Errorf("needle overhead %.3f, paper 0.929", byName["needle"].Overhead)
	}
	if math.Abs(res.Geomean-0.1873) > 0.05 {
		t.Errorf("geomean %.4f, paper 0.1873", res.Geomean)
	}
	if !strings.Contains(res.Table(), "GEOMEAN") {
		t.Error("table rendering")
	}
}

// TestTable2Assembles renders Table II from a live Table III run
// (without the slow Fig. 12 sweep).
func TestTable2Assembles(t *testing.T) {
	t3, err := sectest.RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	rows := Table2(nil, t3)
	if len(rows) != 10 {
		t.Fatalf("Table II rows = %d, want 10", len(rows))
	}
	last := rows[len(rows)-1]
	if last.Name != "LMI" || last.MetadataAccess != "No" {
		t.Errorf("LMI row: %+v", last)
	}
	if last.Heap != "full" || last.Shared != "full" {
		t.Errorf("LMI coverage cells: %+v", last)
	}
	if rows[4].Name != "GMOD" || rows[4].Global != "partial(1/2)" {
		t.Errorf("GMOD row: %+v", rows[4])
	}
	out, err := RenderTable2(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LMI", "GPUShield", "cuCatch", "Pointer Aligning"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}
