package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmi/internal/mem"
	"lmi/internal/runner"
)

// cycleStats is the part of a cycle-tier KernelStats that the timing
// goldens pin: every simulated count a scheduler or issue-path change
// could move, keyed by the job's "benchmark/variant" name.
type cycleStats struct {
	Job           string
	Cycles        uint64
	Instrs        uint64
	ThreadInstrs  uint64
	MemInstrs     map[string]uint64
	PointerChecks uint64
	ECChecked     uint64
	ECElided      uint64
	L1, L2        mem.CacheStats
	DRAMAccesses  uint64
	Halted        bool
	Faults        int
}

// cycleStatsJSON renders a sweep's per-job stats one job per line, in
// submission order, so a golden diff names the jobs that moved.
func cycleStatsJSON(rep *runner.Report) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, r := range rep.Results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Job.Name(), r.Err)
		}
		st := r.Stats
		cs := cycleStats{
			Job:           r.Job.Name(),
			Cycles:        st.Cycles,
			Instrs:        st.Instrs,
			ThreadInstrs:  st.ThreadInstrs,
			MemInstrs:     map[string]uint64{},
			PointerChecks: st.PointerChecks,
			ECChecked:     st.ECChecked,
			ECElided:      st.ECElided,
			L1:            st.L1,
			L2:            st.L2,
			DRAMAccesses:  st.DRAMAccesses,
			Halted:        st.Halted,
			Faults:        len(st.Faults),
		}
		for op, n := range st.MemInstrs {
			cs.MemInstrs[op.String()] = n
		}
		line, err := json.Marshal(cs)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(rep.Results)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

// checkCycleGolden compares a cycle-tier sweep against
// testdata/<name>.golden.json and reports the first differing line,
// which names the job whose stats moved.
func checkCycleGolden(t *testing.T, name string, rep *runner.Report) {
	t.Helper()
	got, err := cycleStatsJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: cycle-tier stats differ from the golden at line %d:\n  want %s\n  got  %s", path, i+1, w, g)
		}
	}
	t.Fatalf("%s: cycle-tier stats differ from the golden in line count", path)
}
