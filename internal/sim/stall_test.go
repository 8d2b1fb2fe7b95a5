package sim_test

import (
	"context"
	"errors"
	"testing"

	"lmi/internal/ir"
	"lmi/internal/sim"
)

// dramChainKernel loads a word and stores it back incremented: the store
// waits on a cold load that misses L1 and L2, so the launch's warps sit
// idle for the whole DRAM latency.
func dramChainKernel() *ir.Func {
	b := ir.NewBuilder("dram_chain")
	out := b.Param(ir.PtrGlobal)
	v := b.Load(ir.I32, out, 0)
	b.Store(out, b.Add(v, b.ConstI(ir.I32, 1)), 4)
	return b.Finalize()
}

// TestCycleLimitDuringStall: a MaxCycles that falls inside a stall in
// which no warp of the launch can issue still stops the launch with the
// typed cycle-limit error naming that limit.
func TestCycleLimitDuringStall(t *testing.T) {
	st, err := launchStuckCtx(t, context.Background(), dramChainKernel(), stuckMaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 300
	cfg := sim.ScaledConfig(1)
	if st.Cycles <= limit+cfg.L1Latency+cfg.L2Latency {
		t.Fatalf("unbounded run took %d cycles; the stall must outlast the %d-cycle limit", st.Cycles, limit)
	}
	_, err = launchStuckCtx(t, context.Background(), dramChainKernel(), limit)
	var cl *sim.CycleLimitError
	if !errors.As(err, &cl) || cl.Limit != limit {
		t.Fatalf("err = %v, want *sim.CycleLimitError{Limit: %d}", err, limit)
	}
}
