package sim_test

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/mem"
	"lmi/internal/safety"
	"lmi/internal/sim"
)

// genRandomKernel builds a random kernel: pools of i32, f32 and i64
// values built from random arithmetic over the thread ID and constants,
// with divergent ifs and loops. Every value is stored as it is made, in
// its own 8-byte slot of the thread's record in out (slot k holds the
// k-th value; kinds[k] is its kind), so none is dead. It draws every IR
// ALU op at every width it takes, so the interpreter checks each ALU
// kernel the tiers share; interpreter and tiers must agree bit-for-bit.
func genRandomKernel(r *rand.Rand, nOps int) (f *ir.Func, kinds []ir.Kind) {
	b := ir.NewBuilder("fuzz")
	out := b.Param(ir.PtrGlobal)
	gtid := b.GlobalTID()
	rec := b.GEP(out, gtid, 8*fuzzSlots, 0)
	var ints, floats, longs []ir.Value
	keep := func(pool *[]ir.Value, v ir.Value) {
		*pool = append(*pool, v)
		b.Store(rec, v, int64(8*len(kinds)))
		kinds = append(kinds, b.F.TypeOf(v).Kind)
	}
	keep(&ints, gtid)
	keep(&ints, b.ConstI(ir.I32, int64(r.Intn(100))+1))
	keep(&ints, b.ConstI(ir.I32, -int64(r.Intn(50))-1))
	keep(&floats, b.I2F(gtid))
	keep(&floats, b.ConstF(r.Float32()*4+0.5))
	// One edge value: NaN, an infinity, or a float outside the i32 range.
	edges := []float32{float32(math.NaN()), float32(math.Inf(-1)), 3e9, -1e10}
	keep(&floats, b.ConstF(edges[r.Intn(len(edges))]))
	// i64 values start from a constant past the i32 range, a negative
	// one and a thread-varying choice between two of them.
	big := b.Shl(b.ConstI(ir.I64, int64(r.Int31())|1), b.ConstI(ir.I64, 32+int64(r.Intn(31))))
	keep(&longs, big)
	keep(&longs, b.ConstI(ir.I64, -int64(r.Intn(1000))-1))
	keep(&longs, b.Select(b.ICmp(isa.CmpLT, gtid, b.ConstI(ir.I32, int64(r.Intn(64)))), big, b.ConstI(ir.I64, 7)))
	pickI := func() ir.Value { return ints[r.Intn(len(ints))] }
	pickF := func() ir.Value { return floats[r.Intn(len(floats))] }
	pickL := func() ir.Value { return longs[r.Intn(len(longs))] }
	cmp := func() isa.CmpOp { return isa.CmpOp(r.Intn(6)) }
	intOps := []func(x, y ir.Value) ir.Value{b.Add, b.Sub, b.Mul, b.Min, b.Max, b.Shl, b.Shr, b.And, b.Or, b.Xor}
	mufus := []func(x ir.Value) ir.Value{b.FRcp, b.FSqrt, b.FExp2, b.FLog2, b.FSin}
	for k := 0; k < nOps; k++ {
		switch r.Intn(25) {
		case 0:
			keep(&ints, b.Add(pickI(), pickI()))
		case 1:
			keep(&ints, b.Sub(pickI(), pickI()))
		case 2:
			keep(&ints, b.Mul(pickI(), pickI()))
		case 3:
			keep(&ints, b.Min(pickI(), pickI()))
		case 4:
			keep(&ints, b.Max(pickI(), pickI()))
		case 5:
			// Shift amounts masked to keep values in well-defined range.
			keep(&ints, b.Shl(pickI(), b.And(pickI(), b.ConstI(ir.I32, 7))))
		case 6:
			keep(&ints, b.Shr(pickI(), b.And(pickI(), b.ConstI(ir.I32, 7))))
		case 7:
			keep(&ints, b.And(pickI(), pickI()))
		case 8:
			keep(&ints, b.Or(pickI(), pickI()))
		case 9:
			keep(&ints, b.Xor(pickI(), pickI()))
		case 10:
			keep(&floats, b.FAdd(pickF(), pickF()))
		case 11:
			keep(&floats, b.FMul(pickF(), pickF()))
		case 12:
			keep(&floats, b.FFMA(pickF(), pickF(), pickF()))
		case 13:
			c := b.ICmp(cmp(), pickI(), pickI())
			keep(&ints, b.Select(c, pickI(), pickI()))
		case 14:
			// Divergent structured If: thread-dependent condition, values
			// merged through pre-declared Vars.
			acc := b.Var(pickI())
			cond := b.ICmp(cmp(), pickI(), pickI())
			x, y := pickI(), pickI()
			b.If(cond, func() {
				b.Assign(acc, b.Add(x, y))
			}, func() {
				b.Assign(acc, b.Xor(x, y))
			})
			keep(&ints, acc)
		case 15:
			// Divergent bounded loop: trip count 0..7 varies per thread.
			trip := b.And(pickI(), b.ConstI(ir.I32, 7))
			acc := b.Var(pickI())
			step := pickI()
			b.For(trip, func(i ir.Value) {
				b.Assign(acc, b.Add(acc, b.Xor(step, i)))
			})
			keep(&ints, acc)
		case 16:
			keep(&floats, b.FSub(pickF(), pickF()))
		case 17:
			// RCP of 0, SQRT and LG2 of negatives and EX2 overflow make
			// infinities and NaNs.
			keep(&floats, mufus[r.Intn(len(mufus))](pickF()))
		case 18:
			// NaN and out-of-range inputs included.
			keep(&ints, b.F2I(pickF()))
		case 19:
			c := b.FCmp(cmp(), pickF(), pickF())
			if r.Intn(2) == 0 {
				keep(&floats, b.Select(c, pickF(), pickF()))
			} else {
				keep(&ints, b.Select(c, pickI(), pickI()))
			}
		case 20:
			if r.Intn(2) == 0 {
				keep(&floats, b.I2F(pickI()))
			} else {
				keep(&floats, b.I2F(pickL()))
			}
		case 21, 22:
			// Any i64 op; shift amounts are unmasked (both widths mask
			// the count in hardware).
			keep(&longs, intOps[r.Intn(len(intOps))](pickL(), pickL()))
		case 23:
			c := b.ICmp(cmp(), pickL(), pickL())
			keep(&longs, b.Select(c, pickL(), pickL()))
		case 24:
			// Divergent i64 loop: the per-thread trip count makes the
			// accumulator thread-varying.
			trip := b.And(pickI(), b.ConstI(ir.I32, 7))
			acc := b.Var(pickL())
			step := pickL()
			b.For(trip, func(ir.Value) {
				b.Assign(acc, b.Add(acc, step))
			})
			keep(&longs, acc)
		}
	}
	return b.MustFinish(), kinds
}

// The parameters of the IR-vs-tier harness: one global output buffer per
// kernel parameter, at these interpreter addresses, written by a grid of
// fuzzGrid blocks of fuzzBlock threads.
var fuzzBufs = []uint64{0x10000, 0x20000, 0x30000}

const (
	fuzzGrid    = 2
	fuzzBlock   = 32
	fuzzThreads = fuzzGrid * fuzzBlock
	// fuzzSlots is the number of 8-byte value slots in each thread's
	// genRandomKernel record.
	fuzzSlots = 40
)

// interpBufs runs f on the IR interpreter with len(sizes) zeroed output
// buffers as its parameters and returns their bytes.
func interpBufs(t *testing.T, f *ir.Func, sizes []int) [][]byte {
	t.Helper()
	if err := ir.Verify(f); err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	g := mem.NewAddrSpace()
	if err := ir.NewInterp(f, g, fuzzBufs[:len(sizes)], fuzzGrid, fuzzBlock).Run(); err != nil {
		t.Fatalf("interp: %v\n%s", err, f)
	}
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = g.ReadBytes(fuzzBufs[i], n)
	}
	return out
}

// tierCase is one way of running an IR kernel on a tier: the compile
// mode, the mechanism, and whether the optimizer runs.
type tierCase struct {
	mode     compiler.Mode
	mech     sim.Mechanism
	optimize bool
}

func tierCases() []tierCase {
	return []tierCase{
		{compiler.ModeBase, sim.Baseline{}, false},
		{compiler.ModeLMI, safety.NewLMI(), false},
		{compiler.ModeLMI, safety.NewLMI(), true},
	}
}

// tierBufs compiles f as tc says, runs it on tier with len(sizes) fresh
// device buffers as its parameters, and returns their bytes. A fault
// fails the test: the kernels the harness runs are memory-safe.
func tierBufs(t *testing.T, f *ir.Func, tc tierCase, tier fastsim.Tier, sizes []int) [][]byte {
	t.Helper()
	prog, err := compiler.Compile(f, tc.mode)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, f)
	}
	if tc.optimize {
		prog = compiler.Optimize(prog)
		if err := prog.Validate(); err != nil {
			t.Fatalf("optimize: %v", err)
		}
	}
	dev, err := sim.NewDevice(sim.ScaledConfig(1), tc.mech)
	if err != nil {
		t.Fatal(err)
	}
	ptrs := make([]uint64, len(sizes))
	for i, n := range sizes {
		if ptrs[i], err = dev.Malloc(uint64(n)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fastsim.LaunchTierCtx(context.Background(), tier, dev, prog, fuzzGrid, fuzzBlock, ptrs)
	if err != nil {
		t.Fatalf("%v launch: %v", tier, err)
	}
	if len(st.Faults) > 0 {
		t.Fatalf("%s %v: spurious fault %v\n%s", tc.mech.Name(), tier, st.Faults[0], f)
	}
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		out[i] = dev.ReadGlobal(ptrs[i], n)
	}
	return out
}

var tiers = []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled}

// TestDifferentialFuzz cross-checks random kernels between the IR
// interpreter, the cycle-level simulator and the compiled tier under
// both compile modes.
func TestDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(20260706))
	sizes := []int{8 * fuzzSlots * fuzzThreads}
	for trial := 0; trial < 40; trial++ {
		f, kinds := genRandomKernel(r, 12+r.Intn(20))
		if len(kinds) > fuzzSlots {
			t.Fatalf("trial %d: %d values overflow the %d-slot record", trial, len(kinds), fuzzSlots)
		}
		want := interpBufs(t, f, sizes)[0]
		for _, tc := range tierCases() {
			// The cycle tier and the compiled tier are each an oracle
			// for the interpreter: both must reproduce its bytes.
			for _, tier := range tiers {
				got := tierBufs(t, f, tc, tier, sizes)[0]
				for i := 0; i < fuzzThreads; i++ {
					for k, kind := range kinds {
						o := 8 * (i*fuzzSlots + k)
						w, g := binary.LittleEndian.Uint64(want[o:]), binary.LittleEndian.Uint64(got[o:])
						if kind == ir.KindF32 {
							wf, gf := math.Float32frombits(uint32(w)), math.Float32frombits(uint32(g))
							if wf == gf || math.IsNaN(float64(wf)) && math.IsNaN(float64(gf)) {
								continue
							}
						}
						if w != g {
							t.Fatalf("trial %d %s %v thread %d value %d (%v): %#x != %#x\n%s",
								trial, tc.mech.Name(), tier, i, k, kind, g, w, f)
						}
					}
				}
			}
		}
	}
}

// TestMinMaxWidths runs i32 and i64 min and max on both tiers against
// the interpreter and against hand-computed values. The compiler
// encodes a 64-bit max as IMNMX with Aux AuxW64|1, so a tier that reads
// max as Aux == 1 runs it as min.
func TestMinMaxWidths(t *testing.T) {
	b := ir.NewBuilder("minmax")
	out := b.Param(ir.PtrGlobal)
	gtid := b.GlobalTID()
	// i32 operands straddling zero; i64 operands whose order differs
	// from the order of their low words (2^40 has a zero low word).
	x32 := b.Sub(gtid, b.ConstI(ir.I32, 16))
	y32 := b.ConstI(ir.I32, 3)
	big := b.Shl(b.ConstI(ir.I64, 1), b.ConstI(ir.I64, 40))
	x64 := b.Select(b.ICmp(isa.CmpLT, gtid, b.ConstI(ir.I32, 16)), b.ConstI(ir.I64, -7), big)
	y64 := b.ConstI(ir.I64, 5)
	vals := []ir.Value{
		b.Min(x32, y32), b.Max(x32, y32),
		b.Min(x64, y64), b.Max(x64, y64),
		b.Max(b.ConstI(ir.I64, 5), b.ConstI(ir.I64, 9)),
	}
	rec := 8 * len(vals)
	base := b.GEP(out, gtid, uint64(rec), 0)
	for i, v := range vals {
		b.Store(base, v, int64(8*i))
	}
	f := b.MustFinish()

	sizes := []int{rec * fuzzThreads}
	want := interpBufs(t, f, sizes)[0]
	slot := func(buf []byte, thread, i int) int64 {
		o := thread*rec + 8*i
		if i < 2 {
			return int64(int32(binary.LittleEndian.Uint32(buf[o:])))
		}
		return int64(binary.LittleEndian.Uint64(buf[o:]))
	}
	for _, c := range []struct {
		thread int
		want   [5]int64
	}{
		{0, [5]int64{-16, 3, -7, 5, 9}},
		{20, [5]int64{3, 4, 5, 1 << 40, 9}},
	} {
		for i, w := range c.want {
			if got := slot(want, c.thread, i); got != w {
				t.Fatalf("interp thread %d value %d = %d, want %d", c.thread, i, got, w)
			}
		}
	}
	for _, tc := range tierCases() {
		for _, tier := range tiers {
			got := tierBufs(t, f, tc, tier, sizes)[0]
			for th := 0; th < fuzzThreads; th++ {
				for i := range vals {
					if g, w := slot(got, th, i), slot(want, th, i); g != w {
						t.Fatalf("%s %v thread %d value %d = %d, interpreter %d",
							tc.mech.Name(), tier, th, i, g, w)
					}
				}
			}
		}
	}
}
