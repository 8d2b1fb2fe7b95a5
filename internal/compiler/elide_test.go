package compiler

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/ir"
	"lmi/internal/isa"
)

// elideContract is a minimal launch contract for the hand-built elide
// test kernels: one block of 64 threads, count parameter absent.
func elideContract() bounds.Contract {
	return bounds.Contract{CountParam: -1, BlockDimX: 64, GridDimX: 1}
}

// TestCompileElidedRejectsProvenOOB is the compile-time-diagnostic
// regression test: a kernel whose store provably lands outside its
// stack allocation for every contract-conforming launch must fail
// CompileElidedWithSourceMap with a positioned *bounds.OOBError — before any
// simulation.
func TestCompileElidedRejectsProvenOOB(t *testing.T) {
	b := ir.NewBuilder("oob_stack_kernel")
	out := b.Param(ir.PtrGlobal)
	buf := b.Alloca(256)
	// One byte past the 256-byte buffer: offset 64 elements of 4 bytes.
	b.Store(b.GEP(buf, b.ConstI(ir.I32, 64), 4, 0), b.ConstI(ir.I32, 1), 0)
	b.Store(b.GEP(out, b.ConstI(ir.I32, 0), 4, 0), b.ConstI(ir.I32, 0), 0)
	f := b.MustFinish()

	_, _, _, err := CompileElidedWithSourceMap(f, elideContract())
	if err == nil {
		t.Fatal("proven-out-of-bounds store compiled without error")
	}
	var oe *bounds.OOBError
	if !errors.As(err, &oe) {
		t.Fatalf("error is %T (%v), want *bounds.OOBError", err, err)
	}
	if !strings.Contains(oe.Error(), "provably out of bounds") {
		t.Errorf("diagnostic lacks the verdict: %v", oe)
	}
	if oe.Func != f.Name || oe.Access.Block < 0 || oe.Access.Index < 0 {
		t.Errorf("diagnostic not positioned: func %q, b%d[%d]", oe.Func, oe.Access.Block, oe.Access.Index)
	}
	if !oe.Access.Store {
		t.Errorf("diagnostic misclassifies the store: %+v", oe.Access)
	}
}

// TestCompileElidedByteIdentical: elided compilation is a pure function
// of (kernel, contract) — concurrent compiles (the -jobs sweeps) must
// produce byte-identical microcode.
func TestCompileElidedByteIdentical(t *testing.T) {
	build := func() *ir.Func {
		b := ir.NewBuilder("elide_det_kernel")
		in := b.Param(ir.PtrGlobal)
		out := b.Param(ir.PtrGlobal)
		n := b.Param(ir.I32)
		idx := b.And(b.GlobalTID(), b.Sub(n, b.ConstI(ir.I32, 1)))
		v := b.Load(ir.I32, b.GEP(in, idx, 4, 0), 0)
		b.Store(b.GEP(out, idx, 4, 0), v, 0)
		return b.MustFinish()
	}
	c := bounds.Contract{CountParam: 2, CountMin: 1, CountMax: 1 << 20,
		PtrBytesPerCount: 4, BlockDimX: 128, GridDimX: 16}
	encode := func(f *ir.Func) ([]byte, error) {
		p, _, _, err := CompileElidedWithSourceMap(f, c)
		if err != nil {
			return nil, err
		}
		if p.CountElided() == 0 {
			return nil, errors.New("guarded copy kernel elided nothing")
		}
		words, err := isa.EncodeProgram(p)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		for _, w := range words {
			for shift := 0; shift < 64; shift += 8 {
				buf.WriteByte(byte(w.Lo >> shift))
				buf.WriteByte(byte(w.Hi >> shift))
			}
		}
		return buf.Bytes(), nil
	}
	want, err := encode(build())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = encode(build())
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("worker %d produced different microcode (%d vs %d bytes)", i, len(got[i]), len(want))
		}
	}
}
