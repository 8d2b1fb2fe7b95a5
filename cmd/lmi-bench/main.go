// Command lmi-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	lmi-bench -all            # everything (slow: full Fig. 12 + Fig. 13 sweeps)
//	lmi-bench -fig 12         # one figure (1, 4, 12, 13)
//	lmi-bench -table 3        # one table (2, 3, 4, 5, 6)
//	lmi-bench -elide          # static extent-check elision experiment
//	lmi-bench -peval -peval-json out.json  # contract-specialization sweep + artifact
//	lmi-bench -sms 8          # scale the simulated GPU
//	lmi-bench -all -jobs 4    # run the sweeps on 4 workers (same output)
//	lmi-bench -all -timing    # per-run timing report on stderr
//	lmi-bench -all -json out.json  # runner reports as a JSON trajectory point
//	lmi-bench -all -tier compiled  # run sweeps on the compiled fast-path tier
//	lmi-bench -fig 12 -jobs 1 -cpuprofile cpu.pprof  # CPU profile of the sweep
//	lmi-bench -fig 12 -jobs 1 -memprofile mem.pprof  # heap profile of the sweep
//
// -tier=compiled executes every launch on internal/fastsim's compiled
// functional tier: instruction/check counters and fault verdicts are
// bit-identical to the cycle simulator (the differential gate in
// scripts/check.sh enforces it), but cycle counts are estimates, so
// timing-derived columns are only meaningful at the default
// -tier=cycle.
//
// Sweeps run on internal/runner's deterministic worker pool: -jobs only
// changes wall-clock, never a rendered byte (results are collected in
// submission order and each run has its own simulated device). The
// default pool size is GOMAXPROCS, also overridable via LMI_JOBS.
//
// -cpuprofile writes a runtime/pprof CPU profile covering every selected
// experiment (read it with `go tool pprof`); it is how the cycle
// simulator's time is attributed to scheduling, issue, LSU, cache and
// mechanism code. -memprofile writes a heap profile once the selected
// experiments finish; its alloc_space samples attribute every byte they
// allocated (`go tool pprof -sample_index=alloc_space`).
//
// A failing experiment no longer aborts the run: remaining experiments
// still execute, the failures are summarised on stderr, and the exit
// status is nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"lmi/internal/cliutil"
	"lmi/internal/experiments"
	"lmi/internal/fastsim"
	"lmi/internal/hwcost"
	"lmi/internal/runner"
	"lmi/internal/sectest"
	"lmi/internal/sim"
	"lmi/internal/stats"
	"lmi/internal/workloads"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1, 4, 12, 13)")
	table := flag.Int("table", 0, "table to regenerate (1, 2, 3, 4, 5, 6)")
	elide := flag.Bool("elide", false, "run the static extent-check elision experiment")
	raceOracle := flag.Bool("race-oracle", false, "run the Fig. 12 sweep with the dynamic race oracle off vs armed and report its overhead")
	raceOracleJSON := flag.String("race-oracle-json", "", "write the race-oracle sweep's deterministic JSON artifact to this file (implies -race-oracle)")
	peval := flag.Bool("peval", false, "run the contract-specialization sweep: general elided programs vs certified residuals")
	pevalJSON := flag.String("peval-json", "", "write the specialization sweep's deterministic JSON artifact to this file (implies -peval)")
	all := flag.Bool("all", false, "regenerate everything")
	sms := flag.Int("sms", experiments.DefaultSimSMs, "simulated SM count (Table IV machine is 80)")
	jobs := flag.Int("jobs", 0, "simulation worker pool size, >= 1 (omit for GOMAXPROCS or $LMI_JOBS)")
	timing := flag.Bool("timing", false, "print each sweep's per-run timing report to stderr")
	jsonPath := flag.String("json", "", "write the runner reports to this file as JSON")
	tierName := flag.String("tier", fastsim.TierCycle.String(),
		"execution tier: cycle (timing reference) or compiled (fast functional)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file once the selected experiments finish")
	flag.Parse()
	if err := cliutil.Validate("lmi-bench", flag.CommandLine,
		cliutil.Check{Name: "sms", Value: *sms},
		cliutil.Check{Name: "jobs", Value: *jobs, AutoZero: true}); err != nil {
		os.Exit(cliutil.Usage("lmi-bench", err))
	}
	if err := cliutil.ValidateEnum("lmi-bench",
		cliutil.EnumCheck{Name: "tier", Value: *tierName, Allowed: fastsim.TierNames()}); err != nil {
		os.Exit(cliutil.Usage("lmi-bench", err))
	}
	tier, _ := fastsim.ParseTier(*tierName)

	cfg := sim.ScaledConfig(*sms)
	var failed []string
	var profile *os.File
	if *cpuProfile != "" {
		var err error
		if profile, err = startCPUProfile(*cpuProfile); err != nil {
			fmt.Fprintf(os.Stderr, "lmi-bench: cpu profile: %v\n", err)
			failed = append(failed, "cpu profile")
		}
	}
	var reports []*runner.Report
	report := func(rep *runner.Report) {
		if rep == nil {
			return
		}
		reports = append(reports, rep)
		if *timing {
			fmt.Fprintf(os.Stderr, "---- %s timing (%d jobs, %d workers, %s wall) ----\n%s",
				rep.Name, len(rep.Results), rep.Workers, rep.Wall.Round(1e6), rep.Table())
		}
	}
	run := func(name string, f func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "lmi-bench: %s: %v\n", name, err)
			failed = append(failed, name)
		}
		fmt.Println()
	}

	want := func(f, t int) bool {
		return *all || (*fig == f && f != 0) || (*table == t && t != 0)
	}
	any := false

	if want(1, 0) {
		any = true
		run("Figure 1: memory instructions per region", func() error {
			res, err := experiments.Fig01JobsTier(cfg, *jobs, tier)
			if res != nil {
				report(res.Report)
			}
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			return nil
		})
	}
	if want(4, 0) {
		any = true
		run("Figure 4: 2^n-alignment memory overhead", func() error {
			res, err := experiments.Fig04()
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			return nil
		})
	}
	if want(0, 1) {
		any = true
		run("Table I: pointer life cycle", func() error {
			fmt.Print(experiments.RenderTable1())
			return nil
		})
	}
	if want(0, 2) {
		any = true
		run("Table II: mechanism comparison", func() error {
			out, err := experiments.RenderTable2Jobs(nil, *jobs)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	}
	if want(0, 3) {
		any = true
		run("Table III: security coverage", func() error {
			res, err := sectest.RunTable3()
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			return nil
		})
	}
	if want(0, 4) {
		any = true
		run("Table IV: simulator configuration", func() error {
			fmt.Println(sim.DefaultConfig().String())
			fmt.Printf("(experiments run scaled to %d SMs: %s)\n", *sms, cfg.String())
			return nil
		})
	}
	if want(0, 5) {
		any = true
		run("Table V: benchmark suite", func() error {
			t := stats.NewTable("suite", "benchmark", "grid", "block", "elements")
			for _, s := range workloads.All() {
				t.AddRowf(0, s.Suite, s.Name, s.Grid, s.Block, s.N)
			}
			fmt.Print(t.String())
			return nil
		})
	}
	if want(0, 6) {
		any = true
		run("Table VI + §XI-C: hardware cost", func() error {
			fmt.Print(hwcost.RenderTable6(3.0))
			return nil
		})
	}
	if want(12, 0) {
		any = true
		run("Figure 12: hardware/compiler mechanisms", func() error {
			res, err := experiments.Fig12JobsTier(cfg, *jobs, tier)
			if res != nil {
				report(res.Report)
			}
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			fmt.Printf("\npaper shape: LMI ~0.2%%, GPUShield low with needle/LSTM outliers, Baggy ~87%% avg / ~5x peak\n")
			return nil
		})
	}
	if want(13, 0) {
		any = true
		run("Figure 13: DBI mechanisms", func() error {
			res, err := experiments.Fig13JobsTier(workloads.Fig13Set(), cfg, *jobs, tier)
			if res != nil {
				report(res.Report)
			}
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			fmt.Printf("\npaper shape: LMI-DBI ~72.95x, memcheck ~32.98x geomean\n")
			return nil
		})
	}
	if *all || *elide {
		any = true
		run("Static extent-check elision", func() error {
			res, err := experiments.ElideJobsTier(cfg, *jobs, tier)
			if res != nil {
				report(res.Report)
			}
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			fmt.Printf("\nevery E bit is audited by lmi-lint's independent register-level analysis (see EXPERIMENTS.md)\n")
			return nil
		})
	}
	if *all || *raceOracle || *raceOracleJSON != "" {
		any = true
		run("Fig. 12 + dynamic race oracle overhead", func() error {
			res, err := experiments.Fig12RaceOracleJobsTier(cfg, *jobs, tier)
			if res != nil {
				for _, rep := range res.Reports {
					report(rep)
				}
			}
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			fmt.Printf("\nrace oracle is timing-invisible: armed cycles == plain cycles on every run, 0 races on the statically-proven corpus\n")
			if *raceOracleJSON != "" {
				return res.WriteJSON(*raceOracleJSON)
			}
			return nil
		})
	}
	if *all || *peval || *pevalJSON != "" {
		any = true
		run("Fig. 12 contract specialization", func() error {
			res, err := experiments.Fig12PevalJobsTier(cfg, *jobs, tier)
			if err != nil {
				return err
			}
			fmt.Print(res.Table())
			fmt.Printf("\nevery residual is certified (internal/peval) and re-audited by lmi-lint -spec-audit's independent judge\n")
			if *pevalJSON != "" {
				return res.WriteJSON(*pevalJSON)
			}
			return nil
		})
	}
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "lmi-bench: cpu profile: %v\n", err)
			failed = append(failed, "cpu profile")
		}
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "lmi-bench: heap profile: %v\n", err)
			failed = append(failed, "heap profile")
		}
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := runner.WriteJSONFile(*jsonPath, reports); err != nil {
			fmt.Fprintf(os.Stderr, "lmi-bench: write %s: %v\n", *jsonPath, err)
			failed = append(failed, "json report")
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "lmi-bench: %d experiment(s) failed:\n", len(failed))
		for _, name := range failed {
			fmt.Fprintf(os.Stderr, "  - %s\n", name)
		}
		os.Exit(1)
	}
}

// startCPUProfile starts a CPU profile written to a new file at path;
// the caller stops the profile and closes the file.
func startCPUProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// writeHeapProfile writes a heap profile to a new file at path, after a
// garbage collection so that its in-use figures are current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
