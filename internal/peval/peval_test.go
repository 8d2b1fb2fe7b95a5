package peval_test

import (
	"errors"
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/peval"
	"lmi/internal/workloads"
)

// TestSpecializeCorpus specializes every workload against its concrete
// contract and checks the structural invariants the certificate
// promises: a valid residual, no growth without an unroll, provenance
// into the original, and a deterministic certificate digest.
func TestSpecializeCorpus(t *testing.T) {
	transformed := 0
	for _, s := range workloads.All() {
		res, err := s.Specialized()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if err := res.Residual.Validate(); err != nil {
			t.Fatalf("%s: residual invalid: %v", s.Name, err)
		}
		cert := res.Cert
		if cert.OrigInstrs != len(res.Original.Instrs) || cert.ResidualInstrs != len(res.Residual.Instrs) {
			t.Fatalf("%s: certificate instruction counts %d/%d do not match programs %d/%d",
				s.Name, cert.OrigInstrs, cert.ResidualInstrs, len(res.Original.Instrs), len(res.Residual.Instrs))
		}
		if len(cert.Provenance) != len(res.Residual.Instrs) {
			t.Fatalf("%s: provenance length %d != residual length %d",
				s.Name, len(cert.Provenance), len(res.Residual.Instrs))
		}
		for i, src := range cert.Provenance {
			if src < -1 || src >= len(res.Original.Instrs) {
				t.Fatalf("%s: provenance[%d] = %d out of range", s.Name, i, src)
			}
		}
		// E hints must be monotone: specialization never resurrects an
		// extent check the general contract already proved away.
		if origE, resE := countE(res.Original), countE(res.Residual); resE < origE && cert.ResidualInstrs == cert.OrigInstrs {
			t.Fatalf("%s: residual has %d E hints, original %d", s.Name, resE, origE)
		}
		if len(cert.Transforms) > 0 {
			transformed++
		}
		// Determinism: a second specialization from scratch must agree
		// bit-for-bit (the Once cache would mask this, so respecialize).
		f, err := s.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		again, err := peval.Specialize(f, s.Contract(), s.ConcreteContract(), peval.Options{})
		if err != nil {
			t.Fatalf("%s: respecialize: %v", s.Name, err)
		}
		d1, err := cert.Digest()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := again.Cert.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("%s: certificate digest not deterministic", s.Name)
		}
		if len(again.Residual.Instrs) != len(res.Residual.Instrs) {
			t.Fatalf("%s: residual length not deterministic", s.Name)
		}
		for i := range again.Residual.Instrs {
			if again.Residual.Instrs[i] != res.Residual.Instrs[i] {
				t.Fatalf("%s: residual instruction %d not deterministic", s.Name, i)
			}
		}
	}
	if transformed == 0 {
		t.Fatal("no workload was actually transformed — the specializer is a no-op on the corpus")
	}
	t.Logf("%d/%d workloads transformed", transformed, len(workloads.All()))
}

// TestTransformCatalogExercised asserts the corpus exercises the
// transformation catalog non-trivially: constant folds, branch
// prunes, and dead-code drops must all fire somewhere (a catalog
// entry nothing triggers would be dead, untested machinery).
func TestTransformCatalogExercised(t *testing.T) {
	kinds := map[string]int{}
	for _, s := range workloads.All() {
		res, err := s.Specialized()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, tr := range res.Cert.Transforms {
			kinds[tr.Kind]++
		}
	}
	t.Logf("transform kinds over corpus: %v", kinds)
	for _, k := range []string{
		peval.TSetElide, peval.TFoldCount, peval.TFoldSReg,
		peval.TFoldConst, peval.TFoldImm, peval.TDrop, peval.TUnroll,
	} {
		if kinds[k] == 0 {
			t.Errorf("transform kind %q never fires on the corpus", k)
		}
	}
}

// TestIdentityResidual pins the satellite requirement: an empty
// contract, or one the general contract does not cover, yields the
// general program byte-for-byte with an empty transformation log.
func TestIdentityResidual(t *testing.T) {
	s := workloads.All()[0]
	f, err := s.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	for name, concrete := range map[string]bounds.Contract{
		"empty":          {},
		"geometry-drift": func() bounds.Contract { c := s.ConcreteContract(); c.BlockDimX++; return c }(),
		"count-rename":   func() bounds.Contract { c := s.ConcreteContract(); c.CountParam = 0; return c }(),
		"range-widening": func() bounds.Contract { c := s.ConcreteContract(); c.CountMax = c.CountMax * 2; return c }(),
	} {
		res, err := peval.Specialize(f, s.Contract(), concrete, peval.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Cert.Transforms) != 0 {
			t.Fatalf("%s: identity residual has %d transforms", name, len(res.Cert.Transforms))
		}
		if len(res.Residual.Instrs) != len(res.Original.Instrs) {
			t.Fatalf("%s: identity residual length differs", name)
		}
		for i := range res.Residual.Instrs {
			if res.Residual.Instrs[i] != res.Original.Instrs[i] {
				t.Fatalf("%s: identity residual differs at %d", name, i)
			}
		}
	}
}

// TestPartialContracts pins the satellite requirement: partially-known
// contracts still specialize soundly. A contract that pins only the
// geometry (count range left at the general bounds) must produce a
// valid residual — the geometry folds fire, the count folds do not —
// and a contract pinning the count but drifting the geometry falls
// back to identity (handled above).
func TestPartialContracts(t *testing.T) {
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		geomOnly := s.Contract() // same range, same geometry: covered, count not pinned
		res, err := peval.Specialize(f, s.Contract(), geomOnly, peval.Options{})
		if err != nil {
			t.Fatalf("%s: geometry-only: %v", s.Name, err)
		}
		if err := res.Residual.Validate(); err != nil {
			t.Fatalf("%s: geometry-only residual invalid: %v", s.Name, err)
		}
		for _, tr := range res.Cert.Transforms {
			if tr.Kind == peval.TFoldCount {
				t.Fatalf("%s: count fold fired without a pinned count", s.Name)
			}
		}
	}
}

// TestSpecializeConcreteOOB: an access the general contract leaves
// unknown but the concrete contract proves out of bounds fails
// specialization with a positioned *bounds.OOBError. The kernel stores
// at byte 4*(n-1) of a 256-byte stack buffer: in bounds for small n,
// past the end for every launch at n = 100.
func TestSpecializeConcreteOOB(t *testing.T) {
	b := ir.NewBuilder("spec_oob_kernel")
	b.Param(ir.PtrGlobal)
	b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	buf := b.Alloca(256)
	b.Store(b.GEP(buf, b.Sub(n, b.ConstI(ir.I32, 1)), 4, 0), b.ConstI(ir.I32, 1), 0)
	f := b.MustFinish()

	general := bounds.Contract{
		CountParam: 2, CountMin: 1, CountMax: 1024,
		PtrBytesPerCount: 4,
		BlockDimX:        64, GridDimX: 1,
	}
	concrete := general
	concrete.CountMin, concrete.CountMax = 100, 100
	res, err := bounds.Analyze(f, general)
	if err != nil {
		t.Fatal(err)
	}
	if p, u, o := res.Counts(); p != 0 || u != 1 || o != 0 {
		t.Fatalf("general contract: proven=%d unknown=%d oob=%d, want the store unknown", p, u, o)
	}
	_, err = peval.Specialize(f, general, concrete, peval.Options{})
	if err == nil {
		t.Fatal("a store proven out of bounds under the concrete contract specialized without error")
	}
	var oe *bounds.OOBError
	if !errors.As(err, &oe) {
		t.Fatalf("error is %T (%v), want a *bounds.OOBError in the chain", err, err)
	}
	if oe.Func != f.Name || !oe.Access.Store {
		t.Errorf("diagnostic misplaced: func %q, %+v", oe.Func, oe.Access)
	}
}

func countE(p *isa.Program) int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Hint.E {
			n++
		}
	}
	return n
}
