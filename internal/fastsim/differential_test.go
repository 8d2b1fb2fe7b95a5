package fastsim_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// launchBoth runs one program on a fresh device per tier (identical
// config, mechanism, and allocations, with the same deterministic
// non-zero bytes written into in) and returns both outcomes. When
// neither launch halted nor faulted it also compares the final in and
// out buffers byte for byte, so a tier that writes wrong values without
// changing control flow cannot pass.
func launchBoth(t *testing.T, prog *isa.Program, v workloads.Variant, cfg sim.Config, grid, block int, n uint64) (cycle, fast *sim.KernelStats) {
	t.Helper()
	cycle, cmem, _ := launchTier(t, fastsim.TierCycle, prog, v, cfg, grid, block, n)
	fast, fmem, _ := launchTier(t, fastsim.TierCompiled, prog, v, cfg, grid, block, n)
	if cycle.Halted || fast.Halted || len(cycle.Faults) != 0 || len(fast.Faults) != 0 {
		return cycle, fast
	}
	diffMem(t, prog.Name+"/"+v.String(), "cycle", cmem, "compiled", fmem)
	return cycle, fast
}

// launchTier runs one program on a fresh device of one tier, with in
// (the first parameter) and out (the second) n 4-byte words each and in
// holding deterministic non-zero bytes. It returns the statistics, the
// final bytes of in followed by those of out, and in's address.
func launchTier(t *testing.T, tier fastsim.Tier, prog *isa.Program, v workloads.Variant, cfg sim.Config, grid, block int, n uint64) (*sim.KernelStats, []byte, uint64) {
	t.Helper()
	size := int(n * 4)
	dev, err := sim.NewDevice(cfg, workloads.NewMechanism(v))
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	in, err := dev.Malloc(uint64(size))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	out, err := dev.Malloc(uint64(size))
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	dev.WriteGlobal(in, inBytes(size))
	st, err := fastsim.LaunchTierCtx(context.Background(), tier, dev, prog, grid, block, []uint64{in, out, n})
	if err != nil {
		t.Fatalf("%v tier: %v", tier, err)
	}
	mem := append(dev.ReadGlobal(in, size), dev.ReadGlobal(out, size)...)
	// out[n-1] is masked: the workload kernels clamp every past-the-end
	// element index to n-1, so each of those threads stores its own
	// accumulator there. That is an unordered global write-write, and
	// its last writer depends on the schedule.
	clear(mem[2*size-4:])
	return st, mem, in
}

// inBytes is the initial content of launchTier's in buffer.
func inBytes(size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(i%255 + 1)
	}
	return b
}

// diffMem reports the first byte where two in-then-out memory images
// differ.
func diffMem(t *testing.T, label, aName string, a []byte, bName string, b []byte) {
	t.Helper()
	size := len(a) / 2
	for i := range a {
		if a[i] != b[i] {
			buf, off := "in", i
			if i >= size {
				buf, off = "out", i-size
			}
			t.Errorf("%s: %s byte %d diverges: %s=%#02x %s=%#02x", label, buf, off, aName, a[i], bName, b[i])
			return
		}
	}
}

// faultProjection renders a fault record without its scheduling
// artifacts (SM assignment, cycle stamp), which legitimately differ
// between tiers.
func faultProjection(rs []sim.FaultRecord) []string {
	out := make([]string, 0, len(rs))
	for _, r := range rs {
		out = append(out, fmt.Sprintf("warp%d lane%d pc=%d: %v", r.Warp, r.Lane, r.PC, r.Fault))
	}
	return out
}

// diffFunctional asserts the two tiers agree on the functional
// projection of a launch: instruction and lane-instruction counts,
// per-opcode memory instruction counts, OCU pointer checks, the
// ECChecked/ECElided split, halt status, and the fault records (their
// location and content, not their cycle stamps).
func diffFunctional(t *testing.T, label string, cycle, fast *sim.KernelStats) {
	t.Helper()
	type row struct {
		name   string
		cv, fv uint64
	}
	for _, r := range []row{
		{"Instrs", cycle.Instrs, fast.Instrs},
		{"ThreadInstrs", cycle.ThreadInstrs, fast.ThreadInstrs},
		{"PointerChecks", cycle.PointerChecks, fast.PointerChecks},
		{"ECChecked", cycle.ECChecked, fast.ECChecked},
		{"ECElided", cycle.ECElided, fast.ECElided},
		{"SharedShadowed", cycle.SharedShadowed, fast.SharedShadowed},
	} {
		if r.cv != r.fv {
			t.Errorf("%s: %s diverges: cycle=%d compiled=%d", label, r.name, r.cv, r.fv)
		}
	}
	if cycle.Halted != fast.Halted {
		t.Errorf("%s: Halted diverges: cycle=%v compiled=%v", label, cycle.Halted, fast.Halted)
	}
	ops := map[isa.Opcode]bool{}
	for op := range cycle.MemInstrs {
		ops[op] = true
	}
	for op := range fast.MemInstrs {
		ops[op] = true
	}
	sorted := make([]isa.Opcode, 0, len(ops))
	for op := range ops {
		sorted = append(sorted, op)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, op := range sorted {
		if cycle.MemInstrs[op] != fast.MemInstrs[op] {
			t.Errorf("%s: MemInstrs[%s] diverges: cycle=%d compiled=%d",
				label, op, cycle.MemInstrs[op], fast.MemInstrs[op])
		}
	}
	// The race oracle's deduplicated findings are part of the functional
	// projection: order-insensitive per-epoch detection makes them
	// interleaving-independent, so the tiers must agree exactly.
	if len(cycle.Races) != len(fast.Races) {
		t.Errorf("%s: race count diverges: cycle=%v compiled=%v", label, cycle.Races, fast.Races)
	} else {
		for i := range cycle.Races {
			if cycle.Races[i] != fast.Races[i] {
				t.Errorf("%s: race %d diverges: cycle=%+v compiled=%+v",
					label, i, cycle.Races[i], fast.Races[i])
			}
		}
	}
	cf, ff := faultProjection(cycle.Faults), faultProjection(fast.Faults)
	if len(cf) != len(ff) {
		t.Errorf("%s: fault count diverges: cycle=%d compiled=%d\ncycle: %v\ncompiled: %v",
			label, len(cf), len(ff), cf, ff)
		return
	}
	for i := range cf {
		if cf[i] != ff[i] {
			t.Errorf("%s: fault %d diverges:\ncycle:    %s\ncompiled: %s", label, i, cf[i], ff[i])
		}
	}
}

// corpusPrograms compiles the differential corpus for one benchmark:
// base and LMI modes, each pre- and post-Optimize, plus the
// statically-elided variant (the E-hint exerciser).
func corpusPrograms(t *testing.T, s *workloads.Spec) map[string]struct {
	prog *isa.Program
	v    workloads.Variant
} {
	t.Helper()
	out := map[string]struct {
		prog *isa.Program
		v    workloads.Variant
	}{}
	f, err := s.Kernel()
	if err != nil {
		t.Fatalf("%s: kernel: %v", s.Name, err)
	}
	for _, m := range []struct {
		name string
		mode compiler.Mode
		v    workloads.Variant
	}{
		{"base", compiler.ModeBase, workloads.VariantBase},
		{"lmi", compiler.ModeLMI, workloads.VariantLMI},
	} {
		p, err := compiler.Compile(f, m.mode)
		if err != nil {
			t.Fatalf("%s/%s: compile: %v", s.Name, m.name, err)
		}
		out[m.name] = struct {
			prog *isa.Program
			v    workloads.Variant
		}{p, m.v}
		out[m.name+"+opt"] = struct {
			prog *isa.Program
			v    workloads.Variant
		}{compiler.Optimize(p), m.v}
	}
	pe, _, _, err := compiler.CompileElidedWithSourceMap(f, s.Contract())
	if err != nil {
		t.Fatalf("%s/elide: compile: %v", s.Name, err)
	}
	out["elide"] = struct {
		prog *isa.Program
		v    workloads.Variant
	}{pe, workloads.VariantLMIElide}
	return out
}

// atomicContentionKernel hammers shared and global atomics from every
// warp: each thread ATOMS-adds 1 into one of four shared slots picked
// by tid&3 (so all warps of a block collide on the same four words) and
// ATOMG-adds 1 into out[0] (so all blocks collide on one global word),
// then four threads publish the per-slot shared tallies.
func atomicContentionKernel() *ir.Func {
	b := ir.NewBuilder("atomic_contention")
	b.Param(ir.PtrGlobal) // in (unused, keeps the corpus param shape)
	out := b.Param(ir.PtrGlobal)
	b.Param(ir.I32) // n
	sh := b.Shared(4 * 4)
	tid := b.TID()
	one := b.ConstI(ir.I32, 1)
	slot := b.And(tid, b.ConstI(ir.I32, 3))
	b.AtomicAdd(b.GEP(sh, slot, 4, 0), one, 0)
	b.AtomicAdd(out, one, 0)
	b.Barrier()
	b.If(b.ICmp(isa.CmpLT, tid, b.ConstI(ir.I32, 4)), func() {
		v := b.Load(ir.I32, b.GEP(sh, tid, 4, 0), 0)
		b.Store(b.GEP(out, b.Add(tid, one), 4, 0), v, 0)
	}, nil)
	return b.MustFinish()
}

// TestDifferentialAtomicContention runs the contention kernel with
// multiple warps per block through both tiers, in base and LMI modes,
// and checks (a) the functional projections agree, (b) the armed race
// oracle stays silent in both tiers (atomic-atomic pairs commute), and
// (c) the atomics actually resolved to the exact expected tallies.
func TestDifferentialAtomicContention(t *testing.T) {
	const grid, block, n = 2, 128, 8
	f := atomicContentionKernel()
	cfg := sim.ScaledConfig(2)
	cfg.RaceOracle = true
	for _, m := range []struct {
		name string
		mode compiler.Mode
		v    workloads.Variant
	}{
		{"base", compiler.ModeBase, workloads.VariantBase},
		{"lmi", compiler.ModeLMI, workloads.VariantLMI},
	} {
		prog, err := compiler.Compile(f, m.mode)
		if err != nil {
			t.Fatalf("%s: compile: %v", m.name, err)
		}
		for _, tier := range []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled} {
			dev, err := sim.NewDevice(cfg, workloads.NewMechanism(m.v))
			if err != nil {
				t.Fatalf("device: %v", err)
			}
			in, _ := dev.Malloc(n * 4)
			outp, _ := dev.Malloc(n * 4)
			st, err := fastsim.LaunchTierCtx(context.Background(), tier, dev, prog, grid, block, []uint64{in, outp, n})
			if err != nil {
				t.Fatalf("%s/%v: launch: %v", m.name, tier, err)
			}
			if st.Halted {
				t.Fatalf("%s/%v: halted: %+v", m.name, tier, st.Faults)
			}
			if len(st.Races) != 0 {
				t.Errorf("%s/%v: atomic-atomic contention misreported as race: %+v", m.name, tier, st.Races)
			}
			if st.SharedShadowed == 0 {
				t.Errorf("%s/%v: oracle saw no shared accesses; the gate is vacuous", m.name, tier)
			}
			raw := dev.ReadGlobal(outp, n*4)
			words := make([]uint32, n)
			for i := range words {
				words[i] = binary.LittleEndian.Uint32(raw[i*4:])
			}
			if words[0] != grid*block {
				t.Errorf("%s/%v: global tally = %d, want %d", m.name, tier, words[0], grid*block)
			}
			for slot := 1; slot <= 4; slot++ {
				if words[slot] != block/4 {
					t.Errorf("%s/%v: shared slot %d tally = %d, want %d",
						m.name, tier, slot-1, words[slot], block/4)
				}
			}
			if tier == fastsim.TierCycle {
				// Cross-tier agreement on the projection is asserted by
				// re-running the compiled tier against these stats below.
				cycleStats := st
				dev2, err := sim.NewDevice(cfg, workloads.NewMechanism(m.v))
				if err != nil {
					t.Fatalf("device: %v", err)
				}
				in2, _ := dev2.Malloc(n * 4)
				out2, _ := dev2.Malloc(n * 4)
				fastStats, err := fastsim.LaunchTierCtx(context.Background(), fastsim.TierCompiled, dev2, prog, grid, block, []uint64{in2, out2, n})
				if err != nil {
					t.Fatalf("%s/compiled: launch: %v", m.name, err)
				}
				diffFunctional(t, m.name+"/contention", cycleStats, fastStats)
			}
		}
	}
}

// TestDifferentialWorkloadCorpus runs the full 28-benchmark corpus —
// base and LMI compiles, pre- and post-Optimize, plus the elided
// variant — through both execution tiers and asserts the functional
// projections are identical. This is the compiled tier's primary
// correctness gate (wired into scripts/check.sh).
func TestDifferentialWorkloadCorpus(t *testing.T) {
	specs := workloads.All()
	if testing.Short() {
		specs = []*workloads.Spec{
			workloads.ByName("bert"),
			workloads.ByName("lud_cuda"),
			workloads.ByName("particlefilter_float"),
			workloads.ByName("sc_gpu"),
		}
	}
	cfg := sim.ScaledConfig(2)
	// Arm the dynamic race oracle in both tiers: the whole corpus is
	// proved race-free statically (internal/race's corpus gate), so the
	// oracle must agree — zero findings in either tier — which is the
	// dynamic half of the differential validation.
	cfg.RaceOracle = true
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for name, c := range corpusPrograms(t, s) {
				cycle, fast := launchBoth(t, c.prog, c.v, cfg, s.Grid, s.Block, s.N)
				diffFunctional(t, s.Name+"/"+name, cycle, fast)
				if !cycle.Halted && len(cycle.Races) != 0 {
					t.Errorf("%s/%s: statically race-free workload raced dynamically: %+v",
						s.Name, name, cycle.Races)
				}
			}
		})
	}
}
