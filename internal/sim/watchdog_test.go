package sim_test

import (
	"errors"
	"testing"
	"time"

	"lmi/internal/alloc"
	"lmi/internal/compiler"
	"lmi/internal/core"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// spinForever emits an infinite pure-ALU loop: the induction variable
// stays zero, so the loop condition never fails and no memory, barrier,
// or exit activity ever occurs.
func spinForever(b *ir.Builder) {
	i := b.Var(b.ConstI(ir.I32, 0))
	b.While(func() ir.Value {
		return b.ICmp(isa.CmpGE, i, b.ConstI(ir.I32, 0))
	}, func() {
		b.Assign(i, b.Add(i, b.ConstI(ir.I32, 0)))
	})
}

// barrierDeadlockKernel: warp 0 parks at a barrier while warp 1 spins
// forever and never reaches it — the block can never release.
func barrierDeadlockKernel() *ir.Func {
	b := ir.NewBuilder("bar_deadlock")
	out := b.Param(ir.PtrGlobal)
	gtid := b.GlobalTID()
	b.If(b.ICmp(isa.CmpLT, gtid, b.ConstI(ir.I32, 32)), func() {
		b.Barrier()
		b.Store(b.GEP(out, gtid, 4, 0), gtid, 0)
	}, func() {
		spinForever(b)
	})
	return b.Finalize()
}

// noProgressKernel: every warp spins forever without touching memory.
func noProgressKernel() *ir.Func {
	b := ir.NewBuilder("no_progress")
	b.Param(ir.PtrGlobal)
	spinForever(b)
	return b.Finalize()
}

func launchStuck(t *testing.T, f *ir.Func, wd sim.WatchdogConfig) (*sim.KernelStats, error) {
	t.Helper()
	prog, err := compiler.Compile(f, compiler.ModeBase)
	if err != nil {
		t.Fatalf("compile %s: %v", f.Name, err)
	}
	cfg := sim.ScaledConfig(1)
	cfg.Watchdog = wd
	dev, err := sim.NewDevice(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dev.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	return dev.Launch(prog, 1, 64, []uint64{p})
}

// TestWatchdogBarrierDeadlock: a barrier the block can never release is
// killed with a typed barrier-deadlock error well before MaxCycles, with
// no partial KernelStats.
func TestWatchdogBarrierDeadlock(t *testing.T) {
	st, err := launchStuck(t, barrierDeadlockKernel(), sim.WatchdogConfig{
		BarrierStallCycles: 2000,
		NoProgressCycles:   500_000, // armed but must not be the one that fires
	})
	var we *sim.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *sim.WatchdogError", err)
	}
	if we.Kind != sim.WatchdogBarrierDeadlock {
		t.Errorf("kind = %s, want %s", we.Kind, sim.WatchdogBarrierDeadlock)
	}
	if st != nil {
		t.Errorf("partial stats returned from deadlocked launch: %+v", st)
	}
	// "Well before MaxCycles": the default limit is 2e9 cycles; the
	// watchdog fires at the first 1024-cycle poll past the 2000-cycle
	// stall. The exact cycle pins the poll cadence.
	if we.Cycle != 2048 {
		t.Errorf("fired at cycle %d, want 2048 (first poll after the 2000-cycle stall)", we.Cycle)
	}
	if we.Kernel != "bar_deadlock" || we.Detail == "" {
		t.Errorf("incomplete error context: %+v", we)
	}
}

// TestWatchdogNoProgress: an infinite pure-ALU loop (which issues
// instructions every cycle, so an issue-based detector would miss it) is
// killed with a typed no-progress error.
func TestWatchdogNoProgress(t *testing.T) {
	st, err := launchStuck(t, noProgressKernel(), sim.WatchdogConfig{
		BarrierStallCycles: 2000, // armed; kernel has no barrier, must not fire
		NoProgressCycles:   3000,
	})
	var we *sim.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *sim.WatchdogError", err)
	}
	if we.Kind != sim.WatchdogNoProgress {
		t.Errorf("kind = %s, want %s", we.Kind, sim.WatchdogNoProgress)
	}
	if st != nil {
		t.Errorf("partial stats returned: %+v", st)
	}
	if we.Cycle != 3072 {
		t.Errorf("fired at cycle %d, want 3072 (first poll after 3000 stalled cycles)", we.Cycle)
	}
}

// TestWatchdogWallClock: the host deadline kills a stuck launch even when
// the cycle-based detectors are disarmed.
func TestWatchdogWallClock(t *testing.T) {
	st, err := launchStuck(t, noProgressKernel(), sim.WatchdogConfig{
		WallClock:        50 * time.Millisecond,
		CheckEveryCycles: 256,
	})
	var we *sim.WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *sim.WatchdogError", err)
	}
	if we.Kind != sim.WatchdogWallClock {
		t.Errorf("kind = %s, want %s", we.Kind, sim.WatchdogWallClock)
	}
	if st != nil {
		t.Errorf("partial stats returned: %+v", st)
	}
}

// TestWatchdogDisabledByDefault: a healthy kernel with a barrier runs to
// completion under an armed watchdog, and the zero-value config imposes
// no detectors at all.
func TestWatchdogHealthyKernelUnaffected(t *testing.T) {
	b := ir.NewBuilder("healthy")
	out := b.Param(ir.PtrGlobal)
	gtid := b.GlobalTID()
	b.Store(b.GEP(out, gtid, 4, 0), gtid, 0)
	b.Barrier()
	b.Store(b.GEP(out, gtid, 4, 0), b.Add(gtid, b.ConstI(ir.I32, 1)), 0)
	st, err := launchStuck(t, b.Finalize(), sim.WatchdogConfig{
		WallClock:          10 * time.Second,
		BarrierStallCycles: 100_000,
		NoProgressCycles:   100_000,
	})
	if err != nil {
		t.Fatalf("healthy kernel killed: %v", err)
	}
	if st == nil || st.Halted {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCycleLimitTyped: the MaxCycles overrun is a typed *CycleLimitError
// (distinct from the watchdog kinds) with the historical message.
func TestCycleLimitTyped(t *testing.T) {
	prog, err := compiler.Compile(noProgressKernel(), compiler.ModeBase)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig(1)
	cfg.MaxCycles = 400
	dev, err := sim.NewDevice(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := dev.Malloc(256)
	_, err = dev.Launch(prog, 1, 32, []uint64{p})
	var cl *sim.CycleLimitError
	if !errors.As(err, &cl) || cl.Limit != 400 {
		t.Fatalf("err = %v, want *sim.CycleLimitError{Limit: 400}", err)
	}
	var we *sim.WatchdogError
	if errors.As(err, &we) {
		t.Error("cycle limit must not be a WatchdogError")
	}
}

// panicMech panics inside the hooks the simulator calls mid-launch,
// modelling a buggy mechanism plug-in.
type panicMech struct {
	sim.Baseline
	onAccess bool
	onTag    bool
}

func (m panicMech) TagAlloc(b alloc.Block, s isa.Space) (uint64, error) {
	if m.onTag {
		panic("mechanism bug: TagAlloc")
	}
	return m.Baseline.TagAlloc(b, s)
}

func (m panicMech) CheckAccess(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	if m.onAccess {
		panic("mechanism bug: CheckAccess")
	}
	return m.Baseline.CheckAccess(a, lanes)
}

// TestLaunchPanicContained: a mechanism that panics mid-launch surfaces
// as a typed *sim.PanicError from Launch, never as a process crash.
func TestLaunchPanicContained(t *testing.T) {
	b := ir.NewBuilder("victim")
	out := b.Param(ir.PtrGlobal)
	b.Store(b.GEP(out, b.GlobalTID(), 4, 0), b.ConstI(ir.I32, 7), 0)
	prog, err := compiler.Compile(b.Finalize(), compiler.ModeBase)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := sim.NewDevice(sim.ScaledConfig(1), panicMech{onAccess: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := dev.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Launch(prog, 1, 32, []uint64{p})
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sim.PanicError", err)
	}
	if pe.Op != "Launch" || len(pe.Stack) == 0 {
		t.Errorf("panic context: op=%q stackLen=%d", pe.Op, len(pe.Stack))
	}
	if st != nil {
		t.Errorf("partial stats after panic: %+v", st)
	}
}

// TestMallocPanicContained: the same containment at the Malloc boundary.
func TestMallocPanicContained(t *testing.T) {
	dev, err := sim.NewDevice(sim.ScaledConfig(1), panicMech{onTag: true})
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := dev.Malloc(256)
	var pe *sim.PanicError
	if !errors.As(err, &pe) || pe.Op != "Malloc" {
		t.Fatalf("err = %v, want *sim.PanicError{Op: Malloc}", err)
	}
	if ptr != 0 {
		t.Errorf("ptr = %#x after panic", ptr)
	}
}
