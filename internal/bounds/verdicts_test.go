package bounds_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/workloads"
)

// verdicts renders every access verdict of the 28 workloads under their
// general and concrete contracts, with the per-verdict counts.
func verdicts(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, k := range []struct {
			name string
			c    bounds.Contract
		}{{"general", s.Contract()}, {"concrete", s.ConcreteContract()}} {
			res, err := bounds.Analyze(f, k.c)
			if err != nil {
				t.Fatalf("%s %s: %v", s.Name, k.name, err)
			}
			fmt.Fprintf(&sb, "== %s %s\n", s.Name, k.name)
			for _, a := range res.Accesses {
				fmt.Fprintln(&sb, a)
			}
			p, u, o := res.Counts()
			fmt.Fprintf(&sb, "proven=%d unknown=%d oob=%d\n", p, u, o)
		}
	}
	return sb.String()
}

// TestVerdictsGolden pins every verdict and its detail (proven, unknown
// and out-of-bounds alike) to testdata/verdicts.golden, so a change to
// the abstract domain that moves any verdict or its reasoning fails
// here, naming the first line that differs.
func TestVerdictsGolden(t *testing.T) {
	path := filepath.Join("testdata", "verdicts.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := verdicts(t), string(data)
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
			t.Fatalf("%s: verdicts differ from the golden at line %d:\n  want %s\n  got  %s", path, i+1, w, g)
		}
	}
}
