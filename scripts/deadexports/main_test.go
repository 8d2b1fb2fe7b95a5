package main

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tree writes files (slash paths relative to a fresh root) and returns
// the root.
func tree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// findings loads and scans a synthetic tree and returns each finding's
// export key ("allowlist <key>" for allowlist findings), sorted.
func findings(t *testing.T, files map[string]string, allow map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := load(fset, tree(t, files))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := scan(fset, pkgs, allow)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, f := range got {
		if rest, ok := strings.CutPrefix(f, "allowlist: "); ok {
			keys = append(keys, "allowlist "+strings.Fields(rest)[0])
			continue
		}
		keys = append(keys, strings.Fields(f)[1])
	}
	sort.Strings(keys)
	return keys
}

func want(t *testing.T, got []string, keys ...string) {
	t.Helper()
	if len(keys) == 0 {
		keys = nil
	}
	if !reflect.DeepEqual(got, keys) {
		t.Fatalf("findings = %q, want %q", got, keys)
	}
}

const gomod = "module m\n\ngo 1.22\n"

func TestFlagsUnusedExports(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a
type T struct{}
func (T) Used() {}
func (T) Dead() {}
func Used() T { return T{} }
func Dead() {}
var DeadVar = 1
const DeadConst = 2
func unexported() {}
`,
		"b/b.go": `package b
import "m/a"
func f() { a.Used().Used() }
`,
	}, nil)
	want(t, got, "a.Dead", "a.DeadConst", "a.DeadVar", "a.T.Dead")
}

func TestTestFilesDoNotCount(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod":      gomod,
		"a/a.go":      "package a\nfunc Hook() {}\n",
		"a/a_test.go": "package a\nfunc use() { Hook() }\n",
		"b/b_test.go": "package b\nimport \"m/a\"\nfunc use() { a.Hook() }\n",
	}, nil)
	want(t, got, "a.Hook")
}

func TestInterfaceMethodsAreUsed(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a
type Runner interface{ Run() int }
func Drive(r Runner) int { return r.Run() }
type T struct{}
func (T) Run() int { return 1 }
func (T) String() string { return "t" }
func (T) Other() {}
func Make() T { return T{} }
`,
		"b/b.go": "package b\nimport \"m/a\"\nfunc f() int { return a.Drive(a.Make()) }\n",
	}, nil)
	want(t, got, "a.T.Other")
}

// TestLibraryInterfaceMethodsDoNotCount: a call through a
// standard-library interface (os.FileInfo) marks no repository method of
// the same name used; only the interfaceMethods names stand for the
// library's interfaces.
func TestLibraryInterfaceMethodsDoNotCount(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a
import "os"
type T struct{}
func (T) Mode() int { return 0 }
func (T) String() string { return "t" }
func Regular(fi os.FileInfo) bool { return fi.Mode().IsRegular() }
func Make() T { return T{} }
`,
		"b/b.go": "package b\nimport \"m/a\"\nvar _ = a.Regular\nvar _ = a.Make\n",
	}, nil)
	want(t, got, "a.T.Mode")
}

func TestEnumMembersExempt(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a
type Kind int
const (
	KindZero Kind = iota
	KindOne
)
const Limit = 3
var K Kind
`,
		"b/b.go": "package b\nimport \"m/a\"\nvar _ = a.K\n",
	}, nil)
	want(t, got, "a.Limit")
}

func TestGenericUsesResolveToDeclaration(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a
type Box[T any] struct{ v T }
func (b Box[T]) Get() T { return b.v }
func (b Box[T]) Put(v T) Box[T] { return Box[T]{v} }
func Map[T any](xs []T) []T { return xs }
`,
		"b/b.go": `package b
import "m/a"
func f() int { var b a.Box[int]; _ = a.Map([]int{1}); return b.Get() }
`,
	}, nil)
	want(t, got, "a.Box.Put")
}

func TestNestedModuleIsAConsumer(t *testing.T) {
	got := findings(t, map[string]string{
		"go.mod":              gomod,
		"a/a.go":              "package a\nfunc OnlyBench() {}\nfunc Dead() {}\n",
		"bench/go.mod":        "module m/bench\n\ngo 1.22\n",
		"bench/main.go":       "package main\nimport \"m/a\"\nfunc main() { a.OnlyBench() }\nfunc Exported() {}\n",
		"bench/sub/sub.go":    "package sub\nfunc Unused() {}\n",
		"a/testdata/x/x.go":   "package x\nfunc Ignored() {}\n",
		".hidden/h/h.go":      "package h\nfunc Ignored() {}\n",
		"_scratch/s/s.go":     "package s\nfunc Ignored() {}\n",
		"a/only_test/t.go":    "package t\nimport \"m/a\"\nfunc f() { a.Dead() }\n",
		"a/only_test/t2.go":   "package t\nfunc Used() {}\nvar _ = Used\n",
		"docs/readme_test.go": "package docs\n",
	}, nil)
	// a.Dead is used by a non-test package (only_test is just a
	// directory name); the nested module's own exports are not the root
	// module's to report.
	want(t, got)
}

func TestAllowlist(t *testing.T) {
	files := map[string]string{
		"go.mod": gomod,
		"a/a.go": "package a\nfunc Hook() {}\nfunc Used() {}\n",
		"b/b.go": "package b\nimport \"m/a\"\nfunc f() { a.Used() }\n",
	}
	want(t, findings(t, files, map[string]string{"a.Hook": "a/a_test.go"}))
	want(t, findings(t, files, map[string]string{
		"a.Hook": "a/a_test.go",
		"a.Used": "b/b_test.go",
		"a.Gone": "a/a_test.go",
	}), "allowlist a.Gone", "allowlist a.Used")
}

func TestLoadImportPaths(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := load(fset, tree(t, map[string]string{
		"go.mod":            gomod,
		"root.go":           "package m\n",
		"a/b/c.go":          "package b\n",
		"a/b/c_test.go":     "package b\n",
		"bench/go.mod":      "module example.com/bench\n",
		"bench/main.go":     "package main\n",
		"bench/x/x.go":      "package x\n",
		"empty/e_test.go":   "package empty\n",
		"a/testdata/t.go":   "package t\n",
		".git/objects/o.go": "package o\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.path+" "+p.key+" "+map[bool]string{true: "root", false: "consumer"}[p.root]+" "+
			strings.Repeat("f", len(p.files)))
	}
	want(t, got,
		"m . root f",
		"m/a/b a/b root f",
		"example.com/bench bench consumer f",
		"example.com/bench/x bench/x consumer f")
}

// TestRepositoryInvariant is the gate itself: every export of the
// module has a non-test caller or an allowlist entry naming its test
// caller, and every allowlist entry is still needed.
func TestRepositoryInvariant(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := load(fset, "../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages; wrong working directory?")
	}
	got, _, err := scan(fset, pkgs, allowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("unused exports:\n%s", strings.Join(got, "\n"))
	}
}
