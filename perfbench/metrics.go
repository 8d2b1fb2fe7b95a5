package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Every run reports the same metric set on every workload, so each
// end-to-end metric is defined per workload by role (see README.md):
// "heavy" is the engine-bound operation class (fig12: a cycle-tier
// sweep; serve-open: a run request; release: a bundle build) and
// "light" the cheap one (a compiled-tier sweep; an inject request; a
// bundle verify). Latency tails are per-layer metrics of the traced
// run: on a shared 2-CPU host their run-to-run spread exceeds any
// bound a regression gate could use (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"heavy_cpu_ms", "ms"},
	{"light_cpu_ms", "ms"},
}

// perLayer is every per-layer metric. A layer a workload does not
// exercise reads 0 on that workload's traced run (fig12 spends no
// time in serve, release none in simulation).
var perLayer = []struct{ name, unit string }{
	// fig12
	{"sim.launch_s.baseline", "s"},
	{"sim.launch_s.baggybounds", "s"},
	{"sim.launch_s.gpushield", "s"},
	{"sim.launch_s.lmi", "s"},
	{"sim.ns_per_warp_instr", "ns"},
	{"sim.cpu_share.issue", "share"},
	{"sim.cpu_share.lsu", "share"},
	{"sim.cpu_share.cache", "share"},
	{"sim.cpu_share.mechanism", "share"},
	{"fastsim.launch_s.baseline", "s"},
	{"fastsim.launch_s.baggybounds", "s"},
	{"fastsim.launch_s.gpushield", "s"},
	{"fastsim.launch_s.lmi", "s"},
	{"fastsim.ns_per_warp_instr", "ns"},
	{"fastsim.cpu_share.engine", "share"},
	{"fastsim.cpu_share.mem", "share"},
	{"fastsim.cpu_share.mechanism", "share"},
	{"fastsim.compile_s", "s"},
	{"runner.imbalance_s", "s"},
	{"compiler.compile_s", "s"},
	{"sim.cycles", "count"},
	{"sim.warp_instrs", "count"},
	{"sim.ec_checked", "count"},
	{"sim.l1_hit_ratio", "ratio"},
	{"sim.l2_hit_ratio", "ratio"},
	{"sim.dram_accesses", "count"},
	// serve-open
	{"serve.exec_ms.run.p50", "ms"},
	{"serve.exec_ms.run.p99", "ms"},
	{"serve.exec_ms.inject.p50", "ms"},
	{"serve.exec_ms.inject.p99", "ms"},
	{"serve.wait_ms.run.p50", "ms"},
	{"serve.wait_ms.run.p99", "ms"},
	{"serve.wait_ms.inject.p50", "ms"},
	{"serve.wait_ms.inject.p99", "ms"},
	{"serve.busy_share", "share"},
	{"fastsim.launch_ms.run.p50", "ms"},
	{"chaos.trial_ms.p50", "ms"},
	{"bundle.verify_s", "s"},
	{"serve.shed", "count"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"serve.queue_high_water", "count"},
	{"loadgen.latency_ms.run.p50", "ms"},
	{"loadgen.latency_ms.inject.p50", "ms"},
	{"loadgen.latency_ms.run.p99", "ms"},
	{"loadgen.latency_ms.inject.p99", "ms"},
	{"loadgen.late_ms.p99", "ms"},
	// release
	{"compiler.elide_s", "s"},
	{"peval.specialize_s", "s"},
	{"bundle.seal_s", "s"},
	{"lint.check_s", "s"},
	{"lint.elide_audit_s", "s"},
	{"race.analyze_s", "s"},
	{"lint.spec_audit_s", "s"},
	{"bundle.decode_s", "s"},
	{"bundle.verify_other_s", "s"},
	{"bundle.bytes", "bytes"},
	{"compiler.instrs_out", "count"},
	{"peval.transforms", "count"},
	{"lint.diags", "count"},
	// every workload
	{"trace.overhead_share", "share"},
}

// fillEndToEnd checks that the workload reported every end-to-end
// metric with its declared unit and nothing else.
func fillEndToEnd(r *run) {
	keep(r, endToEnd, false)
}

// fillPerLayer completes the traced run's metric set: layers the
// workload never entered read 0.
func fillPerLayer(r *run) {
	keep(r, perLayer, true)
}

func keep(r *run, want []struct{ name, unit string }, zeroFill bool) {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := r.Metrics[w.name]
		if !ok {
			if !zeroFill {
				fail("workload did not report %s", w.name)
			}
			m = metric{Unit: w.unit}
		}
		if m.Unit != w.unit {
			fail("metric %s reported in %s, declared %s", w.name, m.Unit, w.unit)
		}
		out[w.name] = m
	}
	r.Metrics = out
}

// quantile is the nearest-rank q-quantile of xs (q in (0, 1]); NaN for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the nearest-rank median duration.
func median(ds []time.Duration) time.Duration {
	return time.Duration(quantile(secs(ds), 0.5) * float64(time.Second))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTimed returns the CPU time this process used while fn ran.
func cpuTimed(fn func()) time.Duration {
	start := cpuTime()
	fn()
	return cpuTime() - start
}

// cpuTime is the CPU time (user + system, every thread) this process
// has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time process pid has used so far: the run time
// of each of its threads, from /proc/<pid>/task/<tid>/schedstat, which
// counts in nanoseconds where /proc/<pid>/stat counts in 10 ms ticks.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %v", dir, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}
