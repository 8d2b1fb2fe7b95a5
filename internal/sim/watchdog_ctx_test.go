package sim_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// stuckMaxCycles is far beyond anything these tests should simulate.
const stuckMaxCycles = 500_000_000

// launchStuckCtx launches f as one 64-thread block under ctx with no
// watchdog detector armed: only the context or maxCycles can stop it.
func launchStuckCtx(t *testing.T, ctx context.Context, f *ir.Func, maxCycles uint64) (*sim.KernelStats, error) {
	t.Helper()
	prog, err := compiler.Compile(f, compiler.ModeBase)
	if err != nil {
		t.Fatalf("compile %s: %v", f.Name, err)
	}
	cfg := sim.ScaledConfig(1)
	cfg.MaxCycles = maxCycles
	dev, err := sim.NewDevice(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dev.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	return dev.LaunchCtx(ctx, prog, 1, 64, []uint64{p})
}

// pollSpinKernel loops forever on a load whose value feeds the next
// iteration: every iteration stalls on memory, and the loads count as
// progress, so only the context can stop it.
func pollSpinKernel() *ir.Func {
	b := ir.NewBuilder("poll_spin")
	out := b.Param(ir.PtrGlobal)
	i := b.Var(b.ConstI(ir.I32, 0))
	b.While(func() ir.Value {
		return b.ICmp(isa.CmpGE, i, b.ConstI(ir.I32, 0))
	}, func() {
		b.Assign(i, b.Load(ir.I32, b.GEP(out, i, 4, 0), 0))
	})
	return b.Finalize()
}

// TestContextCancelAbortsLaunch: a context cancelled mid-kernel stops
// the launch at the next watchdog poll with a typed *sim.ContextError
// wrapping context.Canceled, instead of spinning to MaxCycles.
func TestContextCancelAbortsLaunch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st, err := launchStuckCtx(t, ctx, noProgressKernel(), stuckMaxCycles)
	var ce *sim.ContextError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *sim.ContextError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if st != nil {
		t.Fatalf("got partial KernelStats %+v from an aborted launch", st)
	}
	if ce.Kernel != "no_progress" {
		t.Fatalf("ContextError.Kernel = %q, want no_progress", ce.Kernel)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v; the context is not reaching the run loop", elapsed)
	}
}

// TestContextDeadlineAbortsLaunch: a request deadline threads into the
// watchdog and kills a spinning kernel with an error that is both a
// *sim.ContextError and errors.Is context.DeadlineExceeded — the
// property the serving layer's retry classifier depends on. The abort
// is observed at a watchdog poll, so its cycle is a multiple of the
// default 1024-cycle interval, also for a kernel that spends most
// cycles stalled on memory.
func TestContextDeadlineAbortsLaunch(t *testing.T) {
	for _, f := range []*ir.Func{noProgressKernel(), pollSpinKernel()} {
		t.Run(f.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			st, err := launchStuckCtx(t, ctx, f, stuckMaxCycles)
			if st != nil {
				t.Fatalf("got partial KernelStats %+v from an expired launch", st)
			}
			var ce *sim.ContextError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *sim.ContextError", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			if ce.Cycle == 0 || ce.Cycle%1024 != 0 {
				t.Fatalf("ContextError.Cycle = %d, want a nonzero multiple of the 1024-cycle poll", ce.Cycle)
			}
		})
	}
}

// TestContextBackgroundUnarmed: launching with context.Background (or
// via the ctx-less API) must not arm the polling loop or change
// behaviour — a healthy kernel completes normally.
func TestContextBackgroundUnarmed(t *testing.T) {
	b := ir.NewBuilder("tiny")
	out := b.Param(ir.PtrGlobal)
	b.Store(b.GEP(out, b.GlobalTID(), 4, 0), b.GlobalTID(), 0)
	prog, err := compiler.Compile(b.Finalize(), compiler.ModeBase)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := sim.NewDevice(sim.ScaledConfig(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dev.Malloc(256)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.LaunchCtx(context.Background(), prog, 1, 64, []uint64{p})
	if err != nil {
		t.Fatalf("clean kernel failed under background context: %v", err)
	}
	if st == nil || st.Cycles == 0 {
		t.Fatalf("missing stats from a completed launch: %+v", st)
	}
}
