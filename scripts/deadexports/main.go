// Command deadexports is the repository's unused-export scan. It
// type-checks every non-test package under the root (go/parser and
// go/types, standard library only) and reports each exported
// package-level identifier and exported method declared in the root
// module that no non-test code references. References count from
// anywhere under the root, nested consumer modules (perfbench)
// included. A method whose name an interface declared in a scanned
// package names is taken as used: it may be called through that
// interface. Standard-library interfaces count only through the
// interfaceMethods list, so one call on an os.FileInfo does not mark
// every Mode or Size method in the repository used. A constant of a
// named type is taken as used too: it is one member of an enumeration,
// whose zero member in particular is usually only ever used implicitly.
//
// An export whose only callers are tests belongs in the allowlist
// below, with the test that needs it; anything else is deleted, not
// kept "in case". An allowlist entry that no longer names an unused
// export is a finding too, so the list cannot rot.
//
// Usage: go run ./scripts/deadexports [-root .]
//
// Exits 1 when any finding is reported, listing each as
// file:line: message. scripts/check.sh runs it as a gate.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist maps each export that only tests reference to the test
// files that need it. Keys are "<package dir>.<Name>" or
// "<package dir>.<Type>.<Method>".
var allowlist = map[string]string{
	"internal/alloc.DeviceHeap.Groups":          "internal/alloc/alloc_test.go",
	"internal/alloc.DeviceHeap.Lookup":          "internal/alloc/alloc_test.go",
	"internal/alloc.GlobalAllocator.LiveBlocks": "internal/alloc/alloc_test.go",
	"internal/alloc.GlobalAllocator.Lookup":     "internal/alloc/alloc_test.go",
	"internal/alloc.GlobalAllocator.Policy":     "internal/alloc/alloc_test.go",
	"internal/bounds.Result.Counts":             "internal/bounds/bounds_test.go",
	"internal/chaos.Report.CellOutcomes":        "internal/chaos/chaos_test.go",
	"internal/chaos.StripNullification":         "internal/lint/lint_test.go",
	"internal/core.Codec.DebugExtent":           "internal/core/ec_test.go, pointer_test.go",
	"internal/core.Codec.InBounds":              "internal/core/ec_test.go, pointer_test.go",
	"internal/core.LivenessTracker.Stats":       "bench_test.go, internal/core/liveness_test.go",
	"internal/core.NewCodec":                    "internal/core/ec_test.go, pointer_test.go",
	"internal/core.OCU.CheckMove":               "internal/core/ocu_test.go",
	"internal/experiments.Elide":                "bench_test.go",
	"internal/experiments.Fig01":                "bench_test.go, internal/experiments/experiments_test.go",
	"internal/experiments.Fig12":                "bench_test.go, internal/experiments/experiments_test.go",
	"internal/experiments.Fig13":                "bench_test.go",
	"internal/experiments.Fig13For":             "internal/experiments/experiments_test.go",
	"internal/experiments.RenderTable2":         "bench_test.go, internal/experiments/experiments_test.go",
	"internal/fastsim.Cache.Stats":              "internal/fastsim/cache_test.go, cache_digest_test.go",
	"internal/gpu.Buffer.Free":                  "internal/gpu/gpu_test.go",
	"internal/gpu.Buffer.Ptr":                   "internal/gpu/gpu_test.go",
	"internal/gpu.Context.Device":               "internal/gpu/gpu_test.go",
	"internal/gpu.Context.Mode":                 "internal/gpu/gpu_test.go",
	"internal/gpu.Dim":                          "internal/gpu/gpu_test.go, internal/lang/lang_test.go",
	"internal/gpu.Kernel.Program":               "internal/gpu/gpu_test.go, internal/lang/lang_test.go",
	"internal/gpu.NewBaselineContext":           "internal/gpu/gpu_test.go",
	"internal/ir.Builder.Block":                 "internal/ir/ir_test.go",
	"internal/ir.Builder.IntToPtr":              "internal/ir/ir_test.go, internal/compiler/compiler_test.go",
	"internal/ir.Builder.PtrToInt":              "internal/ir/ir_test.go, internal/compiler/compiler_test.go",
	"internal/ir.Interp.Run":                    "internal/ir/ir_test.go, internal/sim/fuzz_test.go, sim_test.go",
	"internal/ir.NewInterp":                     "internal/ir/ir_test.go, internal/sim/fuzz_test.go, sim_test.go",
	"internal/mem.AddrSpace.Pages":              "internal/mem/mem_test.go",
	"internal/mem.Cache.LineSize":               "internal/mem/mem_test.go",
	"internal/mem.Cache.Probe":                  "internal/mem/mem_test.go",
	"internal/runner.Run":                       "internal/runner/runner_test.go",
	"internal/safety.NewIMT":                    "internal/safety/safety_test.go",
	"internal/serve.Executor.BundleDigest":      "internal/fleet/reload_test.go",
	"internal/serve.NewExecutor":                "internal/serve/executor_spec_test.go, server_test.go",
	"internal/stats.Geomean":                    "internal/stats/stats_test.go, internal/workloads/workloads_test.go",
	"internal/workloads.BySuite":                "internal/workloads/workloads_test.go",
}

// interfaceMethods are standard-library interface method names: a
// method with one of these names may be called through the interface
// without a reference the scan can see.
var interfaceMethods = []string{
	"As", "Close", "Error", "Format", "GoString", "Is", "Len", "Less",
	"MarshalJSON", "MarshalText", "Pop", "Push", "Read", "ServeHTTP",
	"String", "Swap", "UnmarshalJSON", "UnmarshalText", "Unwrap", "Write",
}

func main() {
	root := flag.String("root", ".", "repository root: the module whose exports are scanned")
	flag.Parse()
	fset := token.NewFileSet()
	pkgs, err := load(fset, *root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadexports: %v\n", err)
		os.Exit(2)
	}
	findings, nexports, err := scan(fset, pkgs, allowlist)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadexports: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "deadexports: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Printf("deadexports: %d packages, %d exports, each referenced by non-test code or allowlisted (%d)\n",
		len(pkgs), nexports, len(allowlist))
}

// pkgSrc is one parsed package: its import path, its key prefix in
// findings (the directory relative to the root module), whether the
// root module declares it, and its non-test files.
type pkgSrc struct {
	path  string
	key   string
	root  bool
	files []*ast.File
}

// load parses every non-test package under root. Hidden directories,
// testdata, and directories holding no non-test Go file are skipped;
// a directory's import path derives from the nearest enclosing go.mod.
func load(fset *token.FileSet, root string) ([]*pkgSrc, error) {
	rootMod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	type mod struct{ dir, path string }
	mods := []mod{{".", rootMod}}
	var pkgs []*pkgSrc
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil || !d.IsDir() {
			return werr
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		name := d.Name()
		if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if rel != "." {
			if mp, err := modulePath(filepath.Join(path, "go.mod")); err == nil {
				mods = append(mods, mod{rel, mp})
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		// The innermost module enclosing rel names the package.
		m := mods[0]
		for _, c := range mods[1:] {
			if rel == c.dir || strings.HasPrefix(rel, c.dir+"/") {
				m = c
			}
		}
		p := &pkgSrc{path: m.path, key: rel, root: m.dir == ".", files: files}
		if sub := strings.TrimPrefix(rel, m.dir+"/"); rel != m.dir {
			if m.dir == "." {
				sub = rel
			}
			p.path += "/" + sub
		}
		pkgs = append(pkgs, p)
		return nil
	})
	return pkgs, err
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// checker type-checks the loaded packages on demand, resolving imports
// of loaded packages from source and everything else (the standard
// library) through the default importer.
type checker struct {
	fset  *token.FileSet
	src   map[string]*pkgSrc
	done  map[string]*types.Package
	std   types.Importer
	uses  map[types.Object]bool
	iface map[string]bool
}

func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.done[path]; ok {
		return p, nil
	}
	s, ok := c.src[path]
	if !ok {
		return c.std.Import(path)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, s.files, info)
	if err != nil {
		return nil, err
	}
	c.done[path] = p
	for _, obj := range info.Uses {
		c.uses[origin(obj)] = true
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); m.Pkg() != nil && c.src[m.Pkg().Path()] != nil {
					c.iface[m.Name()] = true
				}
			}
		}
	}
	return p, nil
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// scan type-checks pkgs and returns one finding per exported
// declaration of a root-module package that no non-test code uses and
// the allowlist does not name, plus one per stale allowlist entry, and
// the number of exports examined.
func scan(fset *token.FileSet, pkgs []*pkgSrc, allow map[string]string) ([]string, int, error) {
	c := &checker{
		fset:  fset,
		src:   make(map[string]*pkgSrc),
		done:  make(map[string]*types.Package),
		std:   importer.ForCompiler(fset, "source", nil),
		uses:  make(map[types.Object]bool),
		iface: make(map[string]bool),
	}
	for _, m := range interfaceMethods {
		c.iface[m] = true
	}
	for _, p := range pkgs {
		c.src[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := c.Import(p.path); err != nil {
			return nil, 0, err
		}
	}

	type export struct {
		key string
		pos token.Pos
	}
	var exports []export
	nexports := 0
	for _, p := range pkgs {
		if !p.root {
			continue
		}
		scope := c.done[p.path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			nexports++
			if k, ok := obj.(*types.Const); ok {
				if _, enum := k.Type().(*types.Named); enum {
					continue
				}
			}
			if !c.uses[obj] {
				exports = append(exports, export{p.key + "." + name, obj.Pos()})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				nexports++
				if !c.uses[m] && !c.iface[m.Name()] {
					exports = append(exports, export{p.key + "." + name + "." + m.Name(), m.Pos()})
				}
			}
		}
	}

	var findings []string
	unused := make(map[string]bool)
	for _, e := range exports {
		unused[e.key] = true
		if _, ok := allow[e.key]; ok {
			continue
		}
		pos := fset.Position(e.pos)
		findings = append(findings, fmt.Sprintf("%s:%d: %s is exported but no non-test code uses it; delete it, or allowlist it with its test-only caller",
			pos.Filename, pos.Line, e.key))
	}
	for key := range allow {
		if !unused[key] {
			findings = append(findings, fmt.Sprintf("allowlist: %s is not an unused export; drop the entry", key))
		}
	}
	sort.Strings(findings)
	return findings, nexports, nil
}
