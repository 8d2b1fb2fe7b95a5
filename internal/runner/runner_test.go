package runner

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// testConfig is a small configuration so the suite stays fast.
func testConfig() sim.Config { return sim.ScaledConfig(2) }

// testJobs builds a spec x variant job list over a few cheap benchmarks.
func testJobs(t *testing.T, names []string, variants []workloads.Variant) []Job {
	t.Helper()
	var jobs []Job
	for _, n := range names {
		s := workloads.ByName(n)
		if s == nil {
			t.Fatalf("unknown benchmark %q", n)
		}
		for _, v := range variants {
			jobs = append(jobs, Job{Spec: s, Variant: v, Config: testConfig()})
		}
	}
	return jobs
}

// TestDeterminism is the tentpole guarantee: a parallel run returns the
// same results, in the same order, as the sequential run — so rendered
// tables are byte-identical whatever the pool size.
func TestDeterminism(t *testing.T) {
	jobs := testJobs(t, []string{"nn", "bfs", "pathfinder"},
		[]workloads.Variant{workloads.VariantBase, workloads.VariantLMI})
	seq := Run(jobs, 1)
	par := Run(jobs, 4)
	if len(seq.Results) != len(jobs) || len(par.Results) != len(jobs) {
		t.Fatalf("result counts: seq=%d par=%d want %d",
			len(seq.Results), len(par.Results), len(jobs))
	}
	for i := range jobs {
		s, p := seq.Results[i], par.Results[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("job %s: seq err=%v par err=%v", jobs[i].Name(), s.Err, p.Err)
		}
		if s.Job.Name() != jobs[i].Name() || p.Job.Name() != jobs[i].Name() {
			t.Errorf("job %d out of submission order: seq=%s par=%s want %s",
				i, s.Job.Name(), p.Job.Name(), jobs[i].Name())
		}
		// Wall-clock differs between runs; everything simulated must not.
		if !reflect.DeepEqual(s.Stats, p.Stats) {
			t.Errorf("job %s: parallel stats differ from sequential\nseq: %+v\npar: %+v",
				jobs[i].Name(), s.Stats, p.Stats)
		}
	}
}

// TestRaceStress hammers one shared spec set from many workers several
// times over; `go test -race` turns any unsynchronised sharing (compile
// cache, kernel build, mechanism state) into a failure.
func TestRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress run in -short mode")
	}
	jobs := testJobs(t, []string{"nn", "bfs"},
		[]workloads.Variant{workloads.VariantBase, workloads.VariantLMI,
			workloads.VariantGPUShield, workloads.VariantBaggy})
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := Run(jobs, 8)
			for _, res := range rep.Results {
				if res.Err != nil {
					t.Errorf("%s: %v", res.Job.Name(), res.Err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSubmissionOrderPreserved checks result indexing with more jobs
// than workers (queue wraps) and workers than jobs (pool clamps).
func TestSubmissionOrderPreserved(t *testing.T) {
	jobs := testJobs(t, []string{"nn", "bfs", "pathfinder", "sc_gpu"},
		[]workloads.Variant{workloads.VariantBase})
	for _, workers := range []int{1, 3, 32} {
		rep := Run(jobs, workers)
		if rep.Workers > len(jobs) {
			t.Errorf("workers=%d not clamped to %d jobs", rep.Workers, len(jobs))
		}
		for i, res := range rep.Results {
			if res.Job.Name() != jobs[i].Name() {
				t.Errorf("workers=%d: result %d is %s, want %s",
					workers, i, res.Job.Name(), jobs[i].Name())
			}
			if res.Wall <= 0 {
				t.Errorf("workers=%d: %s: no wall time recorded", workers, res.Job.Name())
			}
		}
	}
}

// TestFaultError covers the fault guard: clean, faulting, and the
// halted-with-no-recorded-fault gap that used to panic the harness.
func TestFaultError(t *testing.T) {
	if err := FaultError("x", &sim.KernelStats{}); err != nil {
		t.Errorf("clean stats: %v", err)
	}
	if err := FaultError("x", nil); err == nil {
		t.Error("nil stats accepted")
	}
	err := FaultError("bench/lmi", &sim.KernelStats{Halted: true})
	if err == nil || !strings.Contains(err.Error(), "halted with no recorded fault") {
		t.Errorf("halted-no-fault error = %v", err)
	}
	err = FaultError("bench/lmi", &sim.KernelStats{
		Halted: true,
		Faults: []sim.FaultRecord{{SM: 1, Warp: 2, Lane: 3}},
	})
	if err == nil || !strings.Contains(err.Error(), "unexpected fault") {
		t.Errorf("faulting error = %v", err)
	}
}

// TestDefaultWorkersEnv covers the LMI_JOBS knob.
func TestDefaultWorkersEnv(t *testing.T) {
	t.Setenv(JobsEnv, "7")
	if got := DefaultWorkers(); got != 7 {
		t.Errorf("LMI_JOBS=7: DefaultWorkers() = %d", got)
	}
	t.Setenv(JobsEnv, "not-a-number")
	if got := DefaultWorkers(); got < 1 {
		t.Errorf("invalid LMI_JOBS: DefaultWorkers() = %d", got)
	}
	t.Setenv(JobsEnv, "-3")
	if got := DefaultWorkers(); got < 1 {
		t.Errorf("negative LMI_JOBS: DefaultWorkers() = %d", got)
	}
}

// TestReportRendering covers the timing table and JSON serialisation.
func TestReportRendering(t *testing.T) {
	jobs := testJobs(t, []string{"nn"}, []workloads.Variant{workloads.VariantBase})
	rep := RunNamed("unit", jobs, 2)
	tbl := rep.Table()
	for _, want := range []string{"job", "outcome", "nn/baseline", "ok", "TOTAL"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("timing table missing %q:\n%s", want, tbl)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name        string `json:"name"`
		Workers     int    `json:"workers"`
		TotalCycles uint64 `json:"total_cycles"`
		Jobs        []struct {
			Job    string `json:"job"`
			Cycles uint64 `json:"cycles"`
			WallNS int64  `json:"wall_ns"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "unit" || len(decoded.Jobs) != 1 {
		t.Fatalf("decoded report: %+v", decoded)
	}
	if decoded.Jobs[0].Job != "nn/baseline" || decoded.Jobs[0].Cycles == 0 ||
		decoded.Jobs[0].WallNS <= 0 || decoded.TotalCycles != decoded.Jobs[0].Cycles {
		t.Errorf("decoded job: %+v", decoded)
	}
}

// TestWriteJSONFile round-trips the trajectory file format.
func TestWriteJSONFile(t *testing.T) {
	jobs := testJobs(t, []string{"nn"}, []workloads.Variant{workloads.VariantBase})
	rep := RunNamed("unit", jobs, 1)
	path := t.TempDir() + "/BENCH_unit.json"
	if err := WriteJSONFile(path, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0]["name"] != "unit" {
		t.Errorf("trajectory file: %s", data)
	}
}

// TestJobErrorPropagation: a failing job (bad config) reports an error
// without aborting sibling jobs, and Report.Stats surfaces it.
func TestJobErrorPropagation(t *testing.T) {
	bad := testConfig()
	bad.LineSize = 100 // not a power of two -> NewDevice fails
	s := workloads.ByName("nn")
	jobs := []Job{
		{Spec: s, Variant: workloads.VariantBase, Config: testConfig()},
		{Spec: s, Variant: workloads.VariantBase, Config: bad},
	}
	rep := Run(jobs, 2)
	if rep.Results[0].Err != nil {
		t.Errorf("good job failed: %v", rep.Results[0].Err)
	}
	if rep.Results[1].Err == nil {
		t.Error("bad config job succeeded")
	}
	if len(rep.Failed()) != 1 {
		t.Errorf("Failed() = %d entries, want 1", len(rep.Failed()))
	}
	if _, err := rep.Stats(); err == nil {
		t.Error("Stats() swallowed the job error")
	}
	if !strings.Contains(rep.Table(), "error:") {
		t.Error("timing table does not show the error outcome")
	}
}

// TestMaxCyclesJob: a job whose simulation exceeds MaxCycles surfaces
// the launch error instead of partial statistics.
func TestMaxCyclesJob(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCycles = 10
	jobs := []Job{{Spec: workloads.ByName("nn"), Variant: workloads.VariantBase, Config: cfg}}
	rep := Run(jobs, 1)
	res := rep.Results[0]
	if res.Err == nil || !strings.Contains(res.Err.Error(), "exceeded") {
		t.Fatalf("err = %v, want MaxCycles exceeded", res.Err)
	}
	if res.Stats != nil {
		t.Error("partial stats returned alongside the error")
	}
	if res.CyclesPerSec() != 0 {
		t.Error("throughput computed for a failed job")
	}
}

// TestWorkerPanicRecovered: a job that panics mid-execution becomes a
// per-job *PanicError with a captured stack; sibling jobs complete.
func TestWorkerPanicRecovered(t *testing.T) {
	jobs := []Job{
		{Spec: workloads.ByName("nn"), Variant: workloads.VariantBase, Config: testConfig()},
		{Spec: nil, Variant: workloads.VariantBase, Config: testConfig()}, // nil spec -> nil deref in RunTierAtCtx
	}
	rep := Run(jobs, 2)
	if rep.Results[0].Err != nil {
		t.Errorf("healthy sibling failed: %v", rep.Results[0].Err)
	}
	var pe *PanicError
	if !errors.As(rep.Results[1].Err, &pe) {
		t.Fatalf("err = %v, want *PanicError", rep.Results[1].Err)
	}
	if len(pe.Stack) == 0 || pe.Job != "?/baseline" {
		t.Errorf("panic context: job=%q stackLen=%d", pe.Job, len(pe.Stack))
	}
	if rep.Results[1].Wall <= 0 {
		t.Error("no wall time recorded for the panicked job")
	}
}

// TestRunCancellation: after the context is cancelled, remaining jobs
// are skipped with the context error while the report stays well-formed
// and in submission order.
func TestRunCancellation(t *testing.T) {
	jobs := testJobs(t, []string{"nn", "bfs", "pathfinder", "sc_gpu"},
		[]workloads.Variant{workloads.VariantBase})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every job must be skipped
	rep := RunNamedCtx(ctx, "cancelled", jobs, 2)
	if len(rep.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(jobs))
	}
	for i, res := range rep.Results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, res.Err)
		}
		if res.Job.Name() != jobs[i].Name() {
			t.Errorf("job %d out of order", i)
		}
	}
	// An un-cancelled context behaves exactly like RunNamed.
	rep = RunNamedCtx(context.Background(), "live", jobs[:1], 1)
	if rep.Results[0].Err != nil {
		t.Errorf("live context run failed: %v", rep.Results[0].Err)
	}
}

// TestForEach covers the generic pool: index-ordered errors, panic
// recovery, and cancellation.
func TestForEach(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	errs := ForEach(context.Background(), 10, 4, func(i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		switch i {
		case 3:
			return errors.New("boom")
		case 7:
			panic("worker bug")
		}
		return nil
	})
	if len(errs) != 10 || len(seen) != 10 {
		t.Fatalf("ran %d/%d items", len(seen), len(errs))
	}
	for i, err := range errs {
		switch i {
		case 3:
			if err == nil || err.Error() != "boom" {
				t.Errorf("item 3 err = %v", err)
			}
		case 7:
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Errorf("item 7 err = %v, want *PanicError", err)
			}
		default:
			if err != nil {
				t.Errorf("item %d err = %v", i, err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, err := range ForEach(ctx, 4, 2, func(int) error { return nil }) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled ForEach err = %v", err)
		}
	}
}
