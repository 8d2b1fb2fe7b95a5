package bundle

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecCorpusGolden pins the producers' bytes: for each entry of the
// 28-entry elide + specialize bundle sealed with the test key, the
// entry digest (certificates included) and the code digest (the
// compiled program, its residual and the specialization certificate).
// A change to the compiler, peval or a certifying pass that moves one
// residual instruction or one certificate field fails here, naming the
// first entry that differs.
func TestSpecCorpusGolden(t *testing.T) {
	b, err := specBundleOnce()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i := range b.Entries {
		e := &b.Entries[i]
		cd, err := CodeDigest(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s entry=%s code=%s\n", e.Key(), e.Digest, cd)
	}
	path := filepath.Join("testdata", "spec_corpus.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(data), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs:\n  want %s\n  got  %s", path, i+1, w, g)
		}
	}
}
