// Command perfbench is the repository benchmark: the Fig. 12 sweep on
// both execution tiers, open-loop latency of a live lmi-serve process,
// and the signed-bundle release pipeline. It drives the system only
// through public entry points, checks every output against references
// that do not come from the measured path, and prints one JSON result
// line last.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	python3 perfbench/run.py --workload fig12 --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. --pin regenerates the
// pinned references under perfbench/ref from the current code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// workloadNames lists the benchmark workloads in BENCHMARK.json order.
var workloadNames = []string{"fig12", "serve-open", "release"}

// opts are the parsed command-line settings shared by every workload.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// nproc is the load concurrency: runner workers, server workers and
	// client connections.
	nproc int
	// out is the scratch directory inside the checkout (bundle files,
	// trace dumps).
	out string
	// serveBin is the lmi-serve binary the serve-open workload execs.
	serveBin string
	// refDir holds the pinned references.
	refDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: the result plus the mismatches
// that made it incorrect (printed to stderr, never silently dropped).
type run struct {
	result
	mismatches []string
}

// mismatch records one failed output check.
func (r *run) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// set records a metric.
func (r *run) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "workload: fig12 | serve-open | release")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement budget in seconds")
	traceLevel := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "scratch directory for bundles and trace dumps")
	flag.StringVar(&o.serveBin, "lmi-serve", "", "lmi-serve binary (serve-open)")
	flag.StringVar(&o.refDir, "ref", "perfbench/ref", "pinned reference directory")
	pin := flag.Bool("pin", false, "regenerate the pinned references from the current code and exit")
	flag.Parse()
	o.nproc = runtime.NumCPU()
	o.trace = *traceLevel == 1
	if *traceLevel != 0 && *traceLevel != 1 {
		fail("invalid --trace %d: want 0 or 1", *traceLevel)
	}
	if o.seconds <= 0 {
		fail("invalid --seconds %v: must be > 0", o.seconds)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fail("%v", err)
	}
	if *pin {
		if err := pinReferences(o); err != nil {
			fail("pin: %v", err)
		}
		return
	}
	ref, err := loadReference(o.refDir)
	if err != nil {
		fail("%v", err)
	}

	meta := runMeta(o)
	fmt.Printf("meta %s\n", mustJSON(meta))
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var r *run
	switch o.workload {
	case "fig12":
		r, err = runFig12(o, ref, tr)
	case "serve-open":
		r, err = runServeOpen(o, ref, tr)
	case "release":
		r, err = runRelease(o, ref, tr)
	default:
		fail("unknown --workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err != nil {
		fail("%s: %v", o.workload, err)
	}
	if o.trace {
		fillPerLayer(r)
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.write(path, meta); err != nil {
			fail("trace dump: %v", err)
		}
		fmt.Printf("trace %s (%d spans)\n", path, tr.len())
	} else {
		fillEndToEnd(r)
	}
	for _, m := range r.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s\n", m)
	}
	r.Correct = len(r.mismatches) == 0
	printSummary(r)
	fmt.Println(mustJSON(r.result))
}

// runMeta is the host and run metadata every output records.
func runMeta(o opts) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"nproc":      o.nproc,
	}
}

// printSummary prints every metric by name with its unit, one per
// line, ahead of the JSON result.
func printSummary(r *run) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-36s %16.6f %s\n", n, m.Value, m.Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("%-36s %16.6f share (%d of %d attempted)\n", "failed_share", share, r.Failed, r.Attempted)
	fmt.Printf("%-36s %16d\n", "mismatches", len(r.mismatches))
}

// peakRSSMB is this process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		fail("encode: %v", err)
	}
	return string(b)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
