package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"lmi/internal/experiments"
	"lmi/internal/fastsim"
	"lmi/internal/runner"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// freshSpecs copies the Table V specs without their program caches, so
// compiling them is a first touch every time.
func freshSpecs() []*workloads.Spec {
	var out []*workloads.Spec
	for _, s := range workloads.All() {
		out = append(out, &workloads.Spec{Name: s.Name, Suite: s.Suite, Params: s.Params,
			Grid: s.Grid, Block: s.Block, DBIGrid: s.DBIGrid, N: s.N, AllocTrace: s.AllocTrace})
	}
	return out
}

// compileTable compiles every Fig. 12 program of specs: the program
// table a sweep's first jobs wait for.
func compileTable(specs []*workloads.Spec, tr *tracer, parent uint64) error {
	for _, s := range specs {
		for _, v := range fig12Variants {
			var err error
			tr.do("compiler.compile", v.String(), parent, 0, func(uint64) { _, err = s.Compile(v) })
			if err != nil {
				return fmt.Errorf("compile %s/%s: %w", s.Name, v, err)
			}
		}
	}
	return nil
}

// fig12Setup times the program-table build setupReps times on fresh
// specs, in CPU time (median is setup_s), then warms the shared specs
// the sweeps use.
func fig12Setup(tr *tracer) (time.Duration, error) {
	const setupReps = 15
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		specs := freshSpecs()
		// Start every repetition from a collected heap, so no repetition
		// pays for a collection the previous ones started.
		runtime.GC()
		var err error
		d := cpuTimed(func() {
			tr.do("fig12.setup", "", 0, 0, func(id uint64) { err = compileTable(specs, tr, id) })
		})
		if err != nil {
			return 0, err
		}
		ds = append(ds, d)
		if tr != nil {
			break // the traced run needs one first-touch table, not a median
		}
	}
	return median(ds), compileTable(workloads.All(), nil, 0)
}

// compiledPerCycle is how many compiled-tier sweeps follow each
// cycle-tier sweep: a compiled sweep is about a fifth as long, and a
// short measurement needs more repetitions for a steady median.
const compiledPerCycle = 2

// runFig12 measures the Fig. 12 sweep through experiments.Fig12JobsTier
// in rounds of one cycle-tier sweep and compiledPerCycle compiled-tier
// sweeps, as many whole rounds as fit the budget (at least one), then
// fills the rest of the budget with compiled-tier sweeps. Each sweep is
// measured in process CPU time (every runner worker and the garbage
// collector), which the host's steal time does not stretch.
func runFig12(o opts, ref *reference, tr *tracer) (*run, error) {
	if tr != nil {
		return traceFig12(o, ref, tr)
	}
	r := &run{}
	setup, err := fig12Setup(nil)
	if err != nil {
		return nil, err
	}
	cfg := experiments.SimConfig()
	var cycleCPU, compiledCPU []time.Duration
	var cycleWall, compiledWall time.Duration // of the latest sweep, for the budget
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	sweep := func(tier fastsim.Tier) (res *experiments.Fig12Result, cpu, wall time.Duration, err error) {
		wallStart := time.Now()
		cpu = cpuTimed(func() { res, err = experiments.Fig12JobsTier(cfg, o.nproc, tier) })
		return res, cpu, time.Since(wallStart), err
	}
	var cyc *experiments.Fig12Result
	var cerr error
	for len(cycleCPU) == 0 || time.Since(start)+cycleWall+compiledPerCycle*compiledWall <= budget {
		var d time.Duration
		cyc, d, cycleWall, cerr = sweep(fastsim.TierCycle)
		cycleCPU = append(cycleCPU, d)
		for i := 0; i < compiledPerCycle; i++ {
			comp, d, wall, kerr := sweep(fastsim.TierCompiled)
			compiledCPU, compiledWall = append(compiledCPU, d), wall
			checkFig12Pair(r, ref, cyc, comp, cerr, kerr, i == 0)
		}
	}
	// Fill what is left of the budget with compiled-tier sweeps.
	for time.Since(start)+compiledWall <= budget {
		comp, d, wall, kerr := sweep(fastsim.TierCompiled)
		compiledCPU, compiledWall = append(compiledCPU, d), wall
		checkFig12Pair(r, ref, cyc, comp, cerr, kerr, false)
	}
	fmt.Printf("fig12: %d cycle-tier and %d compiled-tier sweeps over %.1fs, CPU seconds %.3f and %.3f\n",
		len(cycleCPU), len(compiledCPU), time.Since(start).Seconds(), secs(cycleCPU), secs(compiledCPU))
	r.set("setup_s", "s", setup.Seconds())
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("heavy_cpu_ms", "ms", float64(median(cycleCPU))/float64(time.Millisecond))
	r.set("light_cpu_ms", "ms", float64(median(compiledCPU))/float64(time.Millisecond))
	return r, nil
}

// checkFig12Pair checks a compiled-tier sweep against the cycle-tier
// sweep before it: every job ran clean, the cycle tier's timing
// counters and rendered table equal the pinned reference, and the
// compiled tier's functional projection equals the cycle tier's job by
// job. The cycle sweep is counted once, with its first compiled sweep.
func checkFig12Pair(r *run, ref *reference, cyc, comp *experiments.Fig12Result, cerr, kerr error, first bool) {
	for _, res := range []*experiments.Fig12Result{cyc, comp} {
		if res == nil || res.Report == nil || res == cyc && !first {
			continue
		}
		r.Attempted += len(res.Report.Results)
		r.Failed += len(res.Report.Failed())
	}
	if cerr != nil || kerr != nil {
		r.mismatch("fig12 sweep failed: cycle=%v compiled=%v", cerr, kerr)
		return
	}
	if got := cyc.Table(); got != ref.Fig12.Table {
		r.mismatch("fig12 table differs from the pinned table:\n%s", got)
	}
	checkFig12Jobs(r, ref, cyc.Report.Results, func(i int) *sim.KernelStats { return comp.Report.Results[i].Stats })
}

// checkFig12Jobs compares cycle-tier results with the pinned counters
// and with the compiled tier's projection.
func checkFig12Jobs(r *run, ref *reference, cycle []runner.Result, compiled func(i int) *sim.KernelStats) {
	if len(cycle) != len(ref.Fig12.Jobs) {
		r.mismatch("fig12: %d jobs, reference has %d", len(cycle), len(ref.Fig12.Jobs))
		return
	}
	for i, res := range cycle {
		want := ref.Fig12.Jobs[i]
		st := res.Stats
		got := jobRef{Job: res.Job.Name(), Cycles: st.Cycles, L1: st.L1, L2: st.L2, DRAM: st.DRAMAccesses}
		if got != want {
			r.mismatch("fig12 %s: cycle tier %+v, pinned %+v", want.Job, got, want)
		}
		if d := projectionDiff(st, compiled(i)); d != "" {
			r.mismatch("fig12 %s: tiers disagree: %s", want.Job, d)
		}
	}
}

// projectionDiff compares the functional projection of two launches of
// the same program on the two tiers (instruction and lane counts,
// per-opcode memory instructions, pointer checks, extent checks, halt
// status, fault records without their cycle stamps). "" when equal.
func projectionDiff(a, b *sim.KernelStats) string {
	if a == nil || b == nil {
		return "missing statistics"
	}
	type proj struct {
		Instrs, ThreadInstrs, PointerChecks, ECChecked, ECElided uint64
		Halted                                                   bool
		MemInstrs                                                map[string]uint64
		Faults                                                   []string
	}
	p := func(s *sim.KernelStats) proj {
		m := map[string]uint64{}
		for op, n := range s.MemInstrs {
			if n != 0 {
				m[op.String()] = n
			}
		}
		var fs []string
		for _, f := range s.Faults {
			fs = append(fs, fmt.Sprintf("warp%d lane%d pc=%d: %v", f.Warp, f.Lane, f.PC, f.Fault))
		}
		return proj{s.Instrs, s.ThreadInstrs, s.PointerChecks, s.ECChecked, s.ECElided, s.Halted, m, fs}
	}
	pa, pb := p(a), p(b)
	if !reflect.DeepEqual(pa, pb) {
		return fmt.Sprintf("cycle %+v, compiled %+v", pa, pb)
	}
	return ""
}

// traceFig12 is the traced variant: one first-touch program table, one
// untraced and one traced compiled-tier sweep (their difference is the
// tracing overhead), and one traced cycle-tier sweep, each traced sweep
// under the CPU profiler. Jobs run on runner.ForEach with the same
// worker count; each job's launch is a span.
func traceFig12(o opts, ref *reference, tr *tracer) (*run, error) {
	r := &run{}
	if _, err := fig12Setup(tr); err != nil {
		return nil, err
	}
	cfg := experiments.SimConfig()
	// The second of two untraced compiled-tier sweeps is the overhead
	// baseline; the first warms the process like the traced sweep's
	// predecessors do.
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		untraced = timed(func() {
			res, err := experiments.Fig12JobsTier(cfg, o.nproc, fastsim.TierCompiled)
			if err != nil {
				r.mismatch("fig12 compiled sweep failed: %v", err)
				return
			}
			r.Attempted += len(res.Report.Results)
		})
	}

	var jobs []runner.Job
	for _, s := range workloads.All() {
		for _, v := range fig12Variants {
			jobs = append(jobs, runner.Job{Spec: s, Variant: v, Config: cfg})
		}
	}
	sweep := func(tier fastsim.Tier) ([]runner.Result, time.Duration, []byte) {
		results := make([]runner.Result, len(jobs))
		var wall time.Duration
		prof, err := cpuProfile(func() {
			wall = tr.do("fig12.sweep", tier.String(), 0, 0, func(parent uint64) {
				errs := runner.ForEach(context.Background(), len(jobs), o.nproc, func(i int) error {
					results[i] = traceJob(tr, parent, uint64(i+1), jobs[i], tier)
					return results[i].Err
				})
				for _, err := range errs {
					if err != nil {
						r.Failed++
					}
				}
			})
		})
		if err != nil {
			r.mismatch("cpu profile: %v", err)
		}
		r.Attempted += len(jobs)
		return results, wall, prof
	}
	compiled, compiledWall, compiledProf := sweep(fastsim.TierCompiled)
	cycle, cycleWall, cycleProf := sweep(fastsim.TierCycle)
	for _, res := range append(append([]runner.Result(nil), cycle...), compiled...) {
		if res.Err != nil {
			r.mismatch("fig12 %s: %v", res.Job.Name(), res.Err)
			return r, nil
		}
	}
	checkFig12Jobs(r, ref, cycle, func(i int) *sim.KernelStats { return compiled[i].Stats })

	var instrs, ecChecked, cycles, dram uint64
	var l1h, l1a, l2h, l2a uint64
	for _, res := range cycle {
		st := res.Stats
		instrs += st.Instrs
		ecChecked += st.ECChecked
		cycles += st.Cycles
		dram += st.DRAMAccesses
		l1h, l1a = l1h+st.L1.Hits, l1a+st.L1.Accesses
		l2h, l2a = l2h+st.L2.Hits, l2a+st.L2.Accesses
	}
	for _, v := range fig12Variants {
		r.set("sim.launch_s."+v.String(), "s", tr.total("sim.launch", v.String()).Seconds())
		r.set("fastsim.launch_s."+v.String(), "s", tr.total("fastsim.launch", v.String()).Seconds())
	}
	r.set("sim.ns_per_warp_instr", "ns", float64(tr.total("sim.launch", ""))/float64(instrs))
	r.set("fastsim.ns_per_warp_instr", "ns", float64(tr.total("fastsim.launch", ""))/float64(instrs))
	r.set("fastsim.compile_s", "s", tr.total("fastsim.compile", "").Seconds())
	r.set("compiler.compile_s", "s", tr.total("compiler.compile", "").Seconds())
	jobWall := tr.total("runner.job", "")
	r.set("runner.imbalance_s", "s", (time.Duration(o.nproc)*(cycleWall+compiledWall) - jobWall).Seconds())
	r.set("sim.cycles", "count", float64(cycles))
	r.set("sim.warp_instrs", "count", float64(instrs))
	r.set("sim.ec_checked", "count", float64(ecChecked))
	r.set("sim.dram_accesses", "count", float64(dram))
	r.set("sim.l1_hit_ratio", "ratio", float64(l1h)/float64(l1a))
	r.set("sim.l2_hit_ratio", "ratio", float64(l2h)/float64(l2a))
	r.set("trace.overhead_share", "share", compiledWall.Seconds()/untraced.Seconds()-1)

	simShares, err := cpuShares(cycleProf, []fileGroup{
		{"issue", []string{"internal/sim/exec.go", "internal/sim/device.go"}},
		{"lsu", []string{"internal/sim/lsu.go"}},
		{"cache", []string{"internal/mem/"}},
		{"mechanism", []string{"internal/safety/", "internal/core/", "internal/sim/mechanism.go"}},
	})
	if err != nil {
		return nil, err
	}
	for k, v := range simShares {
		r.set("sim.cpu_share."+k, "share", v)
	}
	fastShares, err := cpuShares(compiledProf, []fileGroup{
		{"engine", []string{"internal/fastsim/engine.go", "internal/fastsim/compile.go"}},
		{"mem", []string{"internal/fastsim/mem.go", "internal/mem/"}},
		{"mechanism", []string{"internal/safety/", "internal/core/", "internal/sim/mechanism.go"}},
	})
	if err != nil {
		return nil, err
	}
	for k, v := range fastShares {
		r.set("fastsim.cpu_share."+k, "share", v)
	}
	return r, nil
}

// traceJob runs one sweep job the way runner.Run does (cached program,
// fresh device, tier launch, clean-run check) with each layer call in
// its own span.
func traceJob(tr *tracer, parent, req uint64, j runner.Job, tier fastsim.Tier) runner.Result {
	res := runner.Result{Job: j}
	mech := j.Variant.String()
	res.Wall = tr.do("runner.job", mech, parent, req, func(id uint64) {
		prog, err := j.Spec.Compile(j.Variant)
		if err != nil {
			res.Err = err
			return
		}
		grid := j.Spec.LaunchGrid(j.Variant)
		var cp *fastsim.Compiled
		name := "sim.launch"
		if tier == fastsim.TierCompiled {
			name = "fastsim.launch"
			tr.do("fastsim.compile", mech, id, req, func(uint64) { cp, err = fastsim.Compile(prog) })
			if err != nil {
				res.Err = err
				return
			}
		}
		tr.do(name, mech, id, req, func(uint64) {
			res.Stats, res.Err = workloads.RunProgramTierAtCtx(context.Background(), j.Spec, j.Variant, j.Config, grid, tier, prog, cp)
		})
		if res.Err == nil {
			res.Err = runner.FaultError(j.Name(), res.Stats)
		}
	})
	return res
}

// timed returns fn's wall time.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
