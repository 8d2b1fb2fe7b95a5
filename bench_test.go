package lmi

// The repository's benchmark harness: one benchmark per table and figure
// of the paper's evaluation. Each runs the corresponding experiment once
// per iteration (iterations take seconds, so go test -bench runs them
// once) and reports the headline numbers as custom metrics so
// bench_output.txt doubles as the reproduction record.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/experiments"
	"lmi/internal/fastsim"
	"lmi/internal/hwcost"
	"lmi/internal/runner"
	"lmi/internal/safety"
	"lmi/internal/sectest"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// writeBenchReport emits a sweep's runner report as BENCH_<name>.json in
// the directory named by LMI_BENCH_JSON, so bench runs leave trajectory
// points next to bench_output.txt. Unset (the default) writes nothing,
// keeping `go test -bench` hermetic. It is called on failing sweeps too
// (the experiments return their partial report alongside the error), so
// a mid-sweep failure still leaves a trajectory point recording it.
func writeBenchReport(b *testing.B, name string, rep *runner.Report) {
	b.Helper()
	dir := os.Getenv("LMI_BENCH_JSON")
	if dir == "" || rep == nil {
		return
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := runner.WriteJSONFile(path, []*runner.Report{rep}); err != nil {
		b.Errorf("write %s: %v", path, err)
	}
}

// BenchmarkFig01MemoryRegionMix regenerates Fig. 1: the dynamic
// LDG/STG / LDS/STS / LDL/STL instruction shares per benchmark. Reported
// metrics are the shared-memory shares of the paper's two anchors.
func BenchmarkFig01MemoryRegionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig01(experiments.SimConfig())
		if err != nil {
			if res != nil {
				writeBenchReport(b, "fig01", res.Report)
			}
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			switch r.Name {
			case "lud_cuda":
				b.ReportMetric(r.Shared, "lud-shared-share")
			case "needle":
				b.ReportMetric(r.Shared, "needle-shared-share")
			case "bert":
				b.ReportMetric(r.Global, "bert-global-share")
			}
		}
		if i == 0 {
			b.Log("\n" + res.Table())
			writeBenchReport(b, "fig01", res.Report)
		}
	}
}

// BenchmarkFig04Fragmentation regenerates Fig. 4: peak-RSS overhead of
// 2^n-aligned allocation (paper: backprop 85.9%, needle 92.9%, geomean
// 18.73%).
func BenchmarkFig04Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig04()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean, "geomean-overhead")
		for _, r := range res.Rows {
			if r.Name == "backprop" {
				b.ReportMetric(r.Overhead, "backprop-overhead")
			}
			if r.Name == "needle" {
				b.ReportMetric(r.Overhead, "needle-overhead")
			}
		}
		if i == 0 {
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkTable3SecurityCoverage regenerates Table III: the 38-scenario
// security suite against GMOD, GPUShield, cuCatch, LMI, and LMI with
// §XII-C liveness tracking.
func BenchmarkTable3SecurityCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sectest.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		sd, st, td, tt := res.Coverage(sectest.ColLMI)
		b.ReportMetric(float64(sd)/float64(st), "lmi-spatial-coverage")
		b.ReportMetric(float64(td)/float64(tt), "lmi-temporal-coverage")
		if i == 0 {
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkChaosCampaign runs the fixed-seed fault-injection campaign
// (the robustness counterpart of Table III: injected metadata corruption
// instead of scripted violations) and reports the detection matrix's
// headline counts. The trial mix is deterministic, so these metrics are
// exact reproduction targets, not samples.
func BenchmarkChaosCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := chaos.Campaign{Seed: 1, Trials: 4}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		counts := map[chaos.Outcome]int{}
		for _, tr := range rep.Trials {
			counts[tr.Outcome]++
		}
		b.ReportMetric(float64(len(rep.Trials)), "chaos-trials")
		b.ReportMetric(float64(counts[chaos.OutcomeDetected]), "chaos-detected")
		b.ReportMetric(float64(len(rep.Undetected())), "chaos-undetected")
		b.ReportMetric(float64(rep.FalsePositives()), "chaos-false-positives")
		b.ReportMetric(float64(rep.Degraded()), "chaos-degraded")
		if i == 0 {
			b.Log("\n" + rep.Render(false))
		}
		if rep.Degraded() > 0 {
			b.Fatalf("campaign degraded %d trials", rep.Degraded())
		}
	}
}

// BenchmarkFig12HardwareMechanisms regenerates Fig. 12: normalized
// execution time of Baggy Bounds, GPUShield, and LMI over the 28-bench
// suite (paper: LMI 0.22% avg; GPUShield low with needle 42.5% / LSTM
// 24%; Baggy 87% avg, 503% peak).
func BenchmarkFig12HardwareMechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(experiments.SimConfig())
		if err != nil {
			if res != nil {
				writeBenchReport(b, "fig12", res.Report)
			}
			b.Fatal(err)
		}
		b.ReportMetric(res.LMIMean, "lmi-geomean")
		b.ReportMetric(res.GPUShieldMean, "gpushield-geomean")
		b.ReportMetric(res.BaggyMean, "baggy-geomean")
		b.ReportMetric(res.BaggyPeak, "baggy-peak")
		if i == 0 {
			b.Log("\n" + res.Table())
			writeBenchReport(b, "fig12", res.Report)
		}
	}
}

// BenchmarkFig13DBIMechanisms regenerates Fig. 13: the DBI
// implementation of LMI versus Compute Sanitizer memcheck over the 24
// non-AD benchmarks (paper: 72.95x and 32.98x geomean).
func BenchmarkFig13DBIMechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(experiments.SimConfig())
		if err != nil {
			if res != nil {
				writeBenchReport(b, "fig13", res.Report)
			}
			b.Fatal(err)
		}
		b.ReportMetric(res.LMIDBIMean, "lmi-dbi-geomean")
		b.ReportMetric(res.MemcheckMean, "memcheck-geomean")
		if i == 0 {
			b.Log("\n" + res.Table())
			writeBenchReport(b, "fig13", res.Report)
		}
	}
}

// BenchmarkElision measures static extent-check elision: the 28-bench
// suite under plain LMI and under LMI with the bounds analysis's proven
// checks elided (E hint). Reported metrics are the mean dynamic
// checks-elided fraction, the cycle-ratio geomean, and the total EC
// energy the skipped evaluations save under the hwcost model.
func BenchmarkElision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Elide(experiments.SimConfig())
		if err != nil {
			if res != nil {
				writeBenchReport(b, "elide", res.Report)
			}
			b.Fatal(err)
		}
		b.ReportMetric(res.ElidedFracMean, "elided-frac-mean")
		b.ReportMetric(res.CycleDeltaMean, "elide-cycle-geomean")
		b.ReportMetric(res.ECEnergySavedNJ, "ec-energy-saved-nJ")
		if i == 0 {
			b.Log("\n" + res.Table())
			writeBenchReport(b, "elide", res.Report)
		}
	}
}

// BenchmarkCompiledTierSpeedup runs the Fig. 12 sweep (the repo's
// heaviest) on the cycle tier and on the compiled fast-path tier and
// reports the wall-clock speedup — the tentpole's >= 5x throughput
// target — plus the compiled sweep's simulated-work rate. Both sweeps'
// reports land as BENCH_fig12_cycle.json / BENCH_fig12_compiled.json
// when LMI_BENCH_JSON is set, recording the before/after trajectory.
func BenchmarkCompiledTierSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.SimConfig()
		cyc, err := experiments.Fig12JobsTier(cfg, 0, fastsim.TierCycle)
		if err != nil {
			b.Fatal(err)
		}
		fast, err := experiments.Fig12JobsTier(cfg, 0, fastsim.TierCompiled)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cyc.Report.Wall.Seconds()/fast.Report.Wall.Seconds(), "compiled-tier-speedup")
		if i == 0 {
			writeBenchReport(b, "fig12_cycle", cyc.Report)
			writeBenchReport(b, "fig12_compiled", fast.Report)
		}
	}
}

// BenchmarkTable2MechanismComparison regenerates Table II from the live
// security run (overhead cells quote Fig. 12; run that benchmark for the
// measured values).
func BenchmarkTable2MechanismComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.RenderTable2(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
}

// BenchmarkTable6HardwareCost regenerates Table VI and the §XI-C
// synthesis result (paper: 153 GE/thread, 0.63 ns, 1.587 GHz, 2 register
// slices at 3 GHz).
func BenchmarkTable6HardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ocu := hwcost.OCU()
		b.ReportMetric(ocu.TotalGE(), "ocu-GE")
		b.ReportMetric(float64(ocu.CriticalPathPs()), "ocu-path-ps")
		b.ReportMetric(float64(ocu.PipelineLatencyCycles(3.0)), "ocu-latency-cycles-3GHz")
		if i == 0 {
			b.Log("\n" + hwcost.RenderTable6(3.0))
		}
	}
}

// BenchmarkAblationOCULatency reports gaussian's LMI/baseline cycle
// ratio at the fixed 3-cycle OCU latency, and the number of OCU pointer
// checks that pay it. It does not compare against a zero-latency OCU:
// the latency is not yet a mechanism field, so the 3-vs-0 comparison
// (and with it a Fig. 12 noise floor) is still open.
func BenchmarkAblationOCULatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.SimConfig()
		s := workloads.ByName("gaussian")
		base, err := workloads.Run(s, workloads.VariantBase, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lmi, err := workloads.Run(s, workloads.VariantLMI, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(lmi.Cycles)/float64(base.Cycles), "gaussian-lmi-3cyc")
		b.ReportMetric(float64(lmi.PointerChecks), "ocu-checks")
	}
}

// BenchmarkAblationOptimizedCodegen re-measures LMI's relative overhead
// on peephole-optimized code (DESIGN.md ablation: the evaluation uses
// the naive generator output for all mechanisms; this shows the relative
// result is insensitive to codegen quality).
func BenchmarkAblationOptimizedCodegen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.SimConfig()
		for _, name := range []string{"nn", "hotspot"} {
			s := workloads.ByName(name)
			run := func(v workloads.Variant) uint64 {
				prog, err := s.Compile(v)
				if err != nil {
					b.Fatal(err)
				}
				prog = compiler.Optimize(prog)
				dev, err := sim.NewDevice(cfg, workloads.NewMechanism(v))
				if err != nil {
					b.Fatal(err)
				}
				in, _ := dev.Malloc(s.N * 4)
				out, _ := dev.Malloc(s.N * 4)
				st, err := dev.Launch(prog, s.Grid, s.Block, []uint64{in, out, s.N})
				if err != nil {
					b.Fatal(err)
				}
				if st.Halted {
					b.Fatalf("%s/%s halted", name, v)
				}
				return st.Cycles
			}
			base := run(workloads.VariantBase)
			lmi := run(workloads.VariantLMI)
			b.ReportMetric(float64(lmi)/float64(base), name+"-optimized-lmi")
		}
	}
}

// BenchmarkAblationPageInvalidOpt measures Algorithm 1's membership-table
// population with and without the pageInvalidOpt optimisation (§XII-C):
// large allocations move from table entries to page invalidations.
func BenchmarkAblationPageInvalidOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.SimConfig()
		for _, opt := range []bool{false, true} {
			mech := safety.NewLMIWithTracking(opt)
			dev, err := sim.NewDevice(cfg, mech)
			if err != nil {
				b.Fatal(err)
			}
			// A mixed allocation pattern: many small buffers (stay in the
			// table) plus large ones (dedicated pages under the opt).
			var ptrs []uint64
			for k := 0; k < 64; k++ {
				p, err := dev.Malloc(512) // small: always tabled
				if err != nil {
					b.Fatal(err)
				}
				ptrs = append(ptrs, p)
				q, err := dev.Malloc(256 << 10) // large: pages under opt
				if err != nil {
					b.Fatal(err)
				}
				ptrs = append(ptrs, q)
			}
			stats := mech.Tracker.Stats()
			suffix := "-tableonly"
			if opt {
				suffix = "-pageinvalid"
			}
			b.ReportMetric(float64(stats.Entries), "entries"+suffix)
			for _, p := range ptrs {
				if err := dev.Free(p); err != nil {
					b.Fatal(err)
				}
			}
			if opt {
				b.ReportMetric(float64(mech.Tracker.Stats().PagesInvalidated), "pages-invalidated")
			}
		}
	}
}
