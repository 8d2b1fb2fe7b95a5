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

// genRandomKernel builds a random straight-line kernel: a pool of i32 and
// f32 values built from random arithmetic over the thread ID and
// constants, with the final values stored to out[gtid] (i32) and
// out2[gtid] (f32). It exercises the full ALU surface without control
// flow, so interpreter and simulator must agree bit-for-bit.
func genRandomKernel(r *rand.Rand, nOps int) *ir.Func {
	b := ir.NewBuilder("fuzz")
	out := b.Param(ir.PtrGlobal)
	out2 := b.Param(ir.PtrGlobal)
	gtid := b.GlobalTID()
	ints := []ir.Value{gtid, b.ConstI(ir.I32, int64(r.Intn(100))+1),
		b.ConstI(ir.I32, -int64(r.Intn(50))-1)}
	floats := []ir.Value{b.I2F(gtid), b.ConstF(r.Float32()*4 + 0.5)}
	pickI := func() ir.Value { return ints[r.Intn(len(ints))] }
	pickF := func() ir.Value { return floats[r.Intn(len(floats))] }
	for k := 0; k < nOps; k++ {
		switch r.Intn(16) {
		case 0:
			ints = append(ints, b.Add(pickI(), pickI()))
		case 1:
			ints = append(ints, b.Sub(pickI(), pickI()))
		case 2:
			ints = append(ints, b.Mul(pickI(), pickI()))
		case 3:
			ints = append(ints, b.Min(pickI(), pickI()))
		case 4:
			ints = append(ints, b.Max(pickI(), pickI()))
		case 5:
			// Shift amounts masked to keep values in well-defined range.
			ints = append(ints, b.Shl(pickI(), b.And(pickI(), b.ConstI(ir.I32, 7))))
		case 6:
			ints = append(ints, b.Shr(pickI(), b.And(pickI(), b.ConstI(ir.I32, 7))))
		case 7:
			ints = append(ints, b.And(pickI(), pickI()))
		case 8:
			ints = append(ints, b.Or(pickI(), pickI()))
		case 9:
			ints = append(ints, b.Xor(pickI(), pickI()))
		case 10:
			floats = append(floats, b.FAdd(pickF(), pickF()))
		case 11:
			floats = append(floats, b.FMul(pickF(), pickF()))
		case 12:
			floats = append(floats, b.FFMA(pickF(), pickF(), pickF()))
		case 13:
			c := b.ICmp(isa.CmpOp(r.Intn(6)), pickI(), pickI())
			ints = append(ints, b.Select(c, pickI(), pickI()))
		case 14:
			// Divergent structured If: thread-dependent condition, values
			// merged through pre-declared Vars.
			acc := b.Var(pickI())
			cond := b.ICmp(isa.CmpOp(r.Intn(6)), pickI(), pickI())
			x, y := pickI(), pickI()
			b.If(cond, func() {
				b.Assign(acc, b.Add(x, y))
			}, func() {
				b.Assign(acc, b.Xor(x, y))
			})
			ints = append(ints, acc)
		case 15:
			// Divergent bounded loop: trip count 0..7 varies per thread.
			trip := b.And(pickI(), b.ConstI(ir.I32, 7))
			acc := b.Var(pickI())
			step := pickI()
			b.For(trip, func(i ir.Value) {
				b.Assign(acc, b.Add(acc, b.Xor(step, i)))
			})
			ints = append(ints, acc)
		}
	}
	b.Store(b.GEP(out, gtid, 4, 0), ints[len(ints)-1], 0)
	b.Store(b.GEP(out2, gtid, 4, 0), floats[len(floats)-1], 0)
	return b.MustFinish()
}

// TestDifferentialFuzz cross-checks random kernels between the IR
// interpreter, the cycle-level simulator and the compiled tier under
// both compile modes.
func TestDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(20260706))
	const threads = 64
	for trial := 0; trial < 40; trial++ {
		f := genRandomKernel(r, 12+r.Intn(20))
		if err := ir.Verify(f); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, f)
		}
		g := mem.NewAddrSpace()
		if err := ir.NewInterp(f, g, []uint64{0x10000, 0x20000}, 2, 32).Run(); err != nil {
			t.Fatalf("trial %d interp: %v", trial, err)
		}
		wantI := g.ReadBytes(0x10000, 4*threads)
		wantF := g.ReadBytes(0x20000, 4*threads)

		for _, tc := range []struct {
			mode     compiler.Mode
			mech     sim.Mechanism
			optimize bool
		}{
			{compiler.ModeBase, sim.Baseline{}, false},
			{compiler.ModeLMI, safety.NewLMI(), false},
			{compiler.ModeLMI, safety.NewLMI(), true},
		} {
			prog, err := compiler.Compile(f, tc.mode)
			if err != nil {
				t.Fatalf("trial %d compile: %v\n%s", trial, err, f)
			}
			if tc.optimize {
				prog = compiler.Optimize(prog)
				if err := prog.Validate(); err != nil {
					t.Fatalf("trial %d optimize: %v", trial, err)
				}
			}
			// The cycle tier and the compiled tier are each an oracle
			// for the interpreter: both must reproduce its bytes.
			for _, tier := range []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled} {
				dev, err := sim.NewDevice(sim.ScaledConfig(1), tc.mech)
				if err != nil {
					t.Fatal(err)
				}
				p1, _ := dev.Malloc(4 * threads)
				p2, _ := dev.Malloc(4 * threads)
				st, err := fastsim.LaunchTierCtx(context.Background(), tier, dev, prog, 2, 32, []uint64{p1, p2})
				if err != nil {
					t.Fatalf("trial %d %v launch: %v", trial, tier, err)
				}
				if len(st.Faults) > 0 {
					t.Fatalf("trial %d %s %v: spurious fault %v\n%s", trial, tc.mech.Name(), tier, st.Faults[0], f)
				}
				gotI := dev.ReadGlobal(p1, 4*threads)
				gotF := dev.ReadGlobal(p2, 4*threads)
				for i := 0; i < threads; i++ {
					wi := binary.LittleEndian.Uint32(wantI[4*i:])
					gi := binary.LittleEndian.Uint32(gotI[4*i:])
					if wi != gi {
						t.Fatalf("trial %d %s %v thread %d: int %#x != %#x\n%s",
							trial, tc.mech.Name(), tier, i, gi, wi, f)
					}
					wf := math.Float32frombits(binary.LittleEndian.Uint32(wantF[4*i:]))
					gf := math.Float32frombits(binary.LittleEndian.Uint32(gotF[4*i:]))
					if wf != gf && !(math.IsNaN(float64(wf)) && math.IsNaN(float64(gf))) {
						t.Fatalf("trial %d %s %v thread %d: float %v != %v\n%s",
							trial, tc.mech.Name(), tier, i, gf, wf, f)
					}
				}
			}
		}
	}
}
