package gpu

import (
	"errors"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/core"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/safety"
	"lmi/internal/sim"
)

func saxpyIR() *ir.Func {
	b := ir.NewBuilder("saxpy")
	X := b.Param(ir.PtrGlobal)
	Y := b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	i := b.GlobalTID()
	b.If(b.ICmp(isa.CmpLT, i, n), func() {
		x := b.Load(ir.F32, b.GEP(X, i, 4, 0), 0)
		y := b.Load(ir.F32, b.GEP(Y, i, 4, 0), 0)
		b.Store(b.GEP(Y, i, 4, 0), b.FFMA(b.ConstF(2), x, y), 0)
	}, nil)
	return b.MustFinish()
}

func TestContextEndToEnd(t *testing.T) {
	ctx, err := NewLMIContext(2)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Mode() != compiler.ModeLMI || ctx.Device() == nil {
		t.Error("context wiring")
	}
	const n = 500
	x, err := Alloc[float32](ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Alloc[float32](ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	hx := make([]float32, n)
	hy := make([]float32, n)
	for i := range hx {
		hx[i] = float32(i)
		hy[i] = float32(2 * i)
	}
	if err := x.CopyIn(hx); err != nil {
		t.Fatal(err)
	}
	if err := y.CopyIn(hy); err != nil {
		t.Fatal(err)
	}
	k, err := ctx.Compile(saxpyIR())
	if err != nil {
		t.Fatal(err)
	}
	if k.Program().CountHinted() == 0 {
		t.Error("LMI context must compile with hints")
	}
	st, err := ctx.Launch(k, Dim(8), Dim(128), x, y, I32(n))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 {
		t.Error("no cycles")
	}
	out, err := y.CopyOut()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != float32(4*i) {
			t.Fatalf("y[%d] = %v, want %v", i, out[i], float32(4*i))
		}
	}
	if err := x.Free(); err != nil {
		t.Fatal(err)
	}
	if err := x.Free(); err == nil {
		t.Error("double free not reported")
	}
	if err := x.CopyIn(hx); err == nil {
		t.Error("CopyIn after free allowed")
	}
	if _, err := x.CopyOut(); err == nil {
		t.Error("CopyOut after free allowed")
	}
}

func TestLaunchSafetyError(t *testing.T) {
	ctx, err := NewLMIContext(1)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Alloc[float32](ctx, 256)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ctx.Compile(saxpyIR())
	if err != nil {
		t.Fatal(err)
	}
	// Lie about the length: thread 256.. writes past the buffer.
	_, err = ctx.Launch(k, Dim(9), Dim(128), buf, buf, I32(1100))
	var sf *SafetyError
	if !errors.As(err, &sf) {
		t.Fatalf("want *SafetyError, got %v", err)
	}
	if len(sf.Stats.Faults) == 0 || sf.Error() == "" {
		t.Error("empty safety error")
	}
	if (&SafetyError{Stats: &sim.KernelStats{}}).Error() == "" {
		t.Error("degenerate safety error message")
	}
}

func TestBufferScalarTypes(t *testing.T) {
	ctx, err := NewBaselineContext(1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Mode() != compiler.ModeBase {
		t.Error("baseline mode")
	}
	i64buf, err := Alloc[int64](ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	want64 := []int64{-1, 2, 1 << 40, -(1 << 50), 0, 7, -9, 42}
	if err := i64buf.CopyIn(want64); err != nil {
		t.Fatal(err)
	}
	got64, _ := i64buf.CopyOut()
	for i := range want64 {
		if got64[i] != want64[i] {
			t.Fatalf("i64[%d] = %d", i, got64[i])
		}
	}
	u32buf, _ := Alloc[uint32](ctx, 4)
	if err := u32buf.CopyIn([]uint32{0xFFFFFFFF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got32, _ := u32buf.CopyOut()
	if got32[0] != 0xFFFFFFFF || u32buf.Len() != 4 {
		t.Error("u32 round trip")
	}
	if err := u32buf.CopyIn(make([]uint32, 5)); err == nil {
		t.Error("oversized CopyIn accepted")
	}
	if _, err := Alloc[int32](ctx, 0); err == nil {
		t.Error("zero-length alloc accepted")
	}
}

func TestContextWithGPUShield(t *testing.T) {
	ctx, err := NewContext(sim.ScaledConfig(1), safety.NewGPUShield())
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Mode() != compiler.ModeBase {
		t.Error("GPUShield must compile ModeBase")
	}
	buf, _ := Alloc[int32](ctx, 64)
	// The tagged pointer still round-trips host copies.
	if err := buf.CopyIn([]int32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	out, _ := buf.CopyOut()
	if out[0] != 1 || out[2] != 3 {
		t.Error("round trip under GPUShield tagging")
	}
	// LMI contexts hand out extent-tagged pointers.
	lctx, _ := NewLMIContext(1)
	lbuf, _ := Alloc[int32](lctx, 64)
	if !core.Pointer(lbuf.Ptr()).Valid() {
		t.Error("LMI buffer pointer not tagged")
	}
}

func TestDims(t *testing.T) {
	if Dim(5) != (Dims{X: 5, Y: 1}) || Dim2(3, 4) != (Dims{X: 3, Y: 4}) {
		t.Error("dims")
	}
	if I32(-1).argWord() != 0xFFFFFFFF || U64(1<<60).argWord() != 1<<60 {
		t.Error("arg words")
	}
}

// crashingMech panics inside the access hook the simulator calls
// mid-launch — the runtime API must contain it as a typed error.
type crashingMech struct{ sim.Baseline }

func (crashingMech) CheckAccess(*sim.WarpAccess, uint32) (uint64, int, *core.Fault) {
	panic("mechanism bug: CheckAccess")
}

// TestLaunchContainsMechanismPanic: no panic escapes the gpu API even
// when a mechanism hook blows up mid-kernel.
func TestLaunchContainsMechanismPanic(t *testing.T) {
	ctx, err := NewContext(sim.ScaledConfig(1), crashingMech{})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Alloc[int32](ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	b := ir.NewBuilder("store1")
	out := b.Param(ir.PtrGlobal)
	b.Store(b.GEP(out, b.GlobalTID(), 4, 0), b.ConstI(ir.I32, 1), 0)
	k, err := ctx.Compile(b.Finalize())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ctx.Launch(k, Dim(1), Dim(32), buf)
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sim.PanicError", err)
	}
	if st != nil {
		t.Errorf("partial stats after panic: %+v", st)
	}
}
