package fastsim_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/safety"
	"lmi/internal/sim"
)

// spoiledLane is one lane of faultOrderKernel whose pointer (R10) the
// instructions in spoil rewrite before the accesses under test.
type spoiledLane struct {
	lane  int32
	spoil []isa.Instr
}

// faultOrderKernel runs one 32-thread warp through a store and a load
// whose lane addresses are in + tid*8 (two cache lines), after the
// spoiled lanes' pointers were rewritten. The loaded values go to
// out + tid*8, so suppressed lanes show up in the memory bytes too.
// R5 holds 1<<58 for spoiling sequences to use.
func faultOrderKernel(name string, spoiled []spoiledLane) *isa.Program {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	r := func(a, b isa.Reg) [3]isa.Reg { return [3]isa.Reg{a, b, isa.RZ} }
	w64 := uint8(isa.AuxW64)
	instrs := []isa.Instr{
		{Op: isa.S2R, Dst: 0, Src: rz, Aux: uint8(isa.SRTidX)},
		{Op: isa.LDC, Dst: 1, Src: rz, Imm: int32(compiler.ParamConstBase + 8), Aux: 3},
		{Op: isa.LDC, Dst: 2, Src: rz, Imm: int32(compiler.ParamConstBase), Aux: 3},
		// R3 = tid*0x01010101 + 0x11: the stored word.
		{Op: isa.IMUL, Dst: 3, Src: r(0, isa.RZ), HasImm: true, Imm: 0x01010101},
		{Op: isa.IADD, Dst: 3, Src: r(3, isa.RZ), HasImm: true, Imm: 0x11},
		{Op: isa.MOV, Dst: 5, Src: rz, HasImm: true, Imm: 1},
		{Op: isa.SHL, Dst: 5, Src: r(5, isa.RZ), HasImm: true, Imm: 58, Aux: w64},
		// R10 = in + tid*8, R13 = out + tid*8.
		{Op: isa.SHL, Dst: 4, Src: r(0, isa.RZ), HasImm: true, Imm: 3, Aux: w64},
		{Op: isa.IADD, Dst: 10, Src: r(2, 4), Aux: w64},
		{Op: isa.IADD, Dst: 13, Src: r(1, 4), Aux: w64},
	}
	for i := range instrs {
		instrs[i].Pred = isa.PT
	}
	for _, s := range spoiled {
		// P0 = tid == lane, then the spoiling sequence under P0.
		instrs = append(instrs, isa.Instr{Op: isa.SETP, Dst: 0, Src: r(0, isa.RZ),
			HasImm: true, Imm: s.lane, Aux: uint8(isa.CmpEQ), Pred: isa.PT})
		for _, in := range s.spoil {
			in.Pred = 0
			instrs = append(instrs, in)
		}
	}
	instrs = append(instrs,
		isa.Instr{Op: isa.STG, Dst: isa.RZ, Src: r(10, 3), Aux: 2, Pred: isa.PT},
		isa.Instr{Op: isa.LDG, Dst: 12, Src: r(10, isa.RZ), Aux: 2, Pred: isa.PT},
		isa.Instr{Op: isa.STG, Dst: isa.RZ, Src: r(13, 12), Aux: 2, Pred: isa.PT},
		isa.Instr{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	)
	return prog(name, 14, instrs)
}

// TestWarpFaultOrder pins what one warp memory instruction faulting on
// several lanes records, on both tiers and with HaltOnFault off and on:
// the fault records (lane, pc, fault text, in order), ECChecked, the
// final memory bytes, and the mechanism's own statistics. LMI sees
// zero-extent pointers in lanes 3, 17 and 30. GPUShield sees a
// per-buffer out-of-bounds pointer in lane 5 and a stale buffer ID in
// lanes 20 and 21; lane 21 shares lane 20's raw line, so it is a
// coalesced lane that still faults, and lanes 6 and 22 are
// uncoalesced because their predecessors' lines differ.
func TestWarpFaultOrder(t *testing.T) {
	const n = 1024 // words per buffer
	w64 := uint8(isa.AuxW64)
	ptr := [3]isa.Reg{10, isa.RZ, isa.RZ}
	nullify := []isa.Instr{ // clear the 5-bit extent field: R10 <<= 5; R10 >>= 5
		{Op: isa.SHL, Dst: 10, Src: ptr, HasImm: true, Imm: 5, Aux: w64},
		{Op: isa.SHR, Dst: 10, Src: ptr, HasImm: true, Imm: 5, Aux: w64},
	}
	past := []isa.Instr{{Op: isa.IADD, Dst: 10, Src: ptr, HasImm: true, Imm: 1 << 20, Aux: w64}}
	stale := []isa.Instr{{Op: isa.XOR, Dst: 10, Src: [3]isa.Reg{10, 5, isa.RZ}, Aux: w64}}
	cases := []struct {
		name    string
		mech    func() sim.Mechanism
		spoiled []spoiledLane
		stats   func(sim.Mechanism) string
		// Per HaltOnFault setting (off, on), the same on both tiers: the
		// fault records as pc/lane, ECChecked and the mechanism stats.
		faults    [2][]string
		ecChecked [2]uint64
		want      [2]string
	}{
		{
			name:    "lmi",
			mech:    func() sim.Mechanism { return safety.NewLMI() },
			spoiled: []spoiledLane{{3, nullify}, {17, nullify}, {30, nullify}},
			stats: func(m sim.Mechanism) string {
				ec := m.(*safety.LMI).EC.Stats
				return fmt.Sprintf("checks=%d faults=%d", ec.Checks, ec.Faults)
			},
			faults: [2][]string{
				{"pc19/lane3", "pc19/lane17", "pc19/lane30", "pc20/lane3", "pc20/lane17", "pc20/lane30"},
				{"pc19/lane3"},
			},
			ecChecked: [2]uint64{96, 4},
			want:      [2]string{"checks=96 faults=6", "checks=4 faults=1"},
		},
		{
			name:    "gpushield",
			mech:    func() sim.Mechanism { return safety.NewGPUShield() },
			spoiled: []spoiledLane{{5, past}, {20, stale}, {21, stale}},
			stats: func(m sim.Mechanism) string {
				g := m.(*safety.GPUShield)
				return fmt.Sprintf("lookups=%d misses=%d", g.Stats.Lookups, g.Stats.Misses)
			},
			faults: [2][]string{
				{"pc16/lane5", "pc16/lane20", "pc16/lane21", "pc17/lane5", "pc17/lane20", "pc17/lane21"},
				{"pc16/lane5"},
			},
			ecChecked: [2]uint64{96, 6},
			want:      [2]string{"lookups=14 misses=3", "lookups=2 misses=1"},
		},
	}
	for _, c := range cases {
		p := faultOrderKernel(c.name, c.spoiled)
		for hi, halt := range []bool{false, true} {
			label := fmt.Sprintf("%s/halt=%v", c.name, halt)
			var (
				st  [2]*sim.KernelStats
				mem [2][]byte
			)
			for ti, tier := range []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled} {
				cfg := sim.ScaledConfig(1)
				cfg.HaltOnFault = halt
				mech := c.mech()
				dev, err := sim.NewDevice(cfg, mech)
				if err != nil {
					t.Fatalf("device: %v", err)
				}
				in, err := dev.Malloc(n * 4)
				if err != nil {
					t.Fatalf("malloc: %v", err)
				}
				out, err := dev.Malloc(n * 4)
				if err != nil {
					t.Fatalf("malloc: %v", err)
				}
				init := make([]byte, n*4)
				for i := range init {
					init[i] = byte(i%251 + 1)
				}
				dev.WriteGlobal(in, init)
				st[ti], err = fastsim.LaunchTierCtx(context.Background(), tier, dev, p, 1, 32, []uint64{in, out, n})
				if err != nil {
					t.Fatalf("%s/%v: %v", label, tier, err)
				}
				mem[ti] = append(dev.ReadGlobal(in, n*4), dev.ReadGlobal(out, n*4)...)
				if got := c.stats(mech); got != c.want[hi] {
					t.Errorf("%s/%v: mechanism stats %s, want %s", label, tier, got, c.want[hi])
				}
				var faults []string
				for _, r := range st[ti].Faults {
					faults = append(faults, fmt.Sprintf("pc%d/lane%d", r.PC, r.Lane))
				}
				if !slices.Equal(faults, c.faults[hi]) {
					t.Errorf("%s/%v: faults %v, want %v", label, tier, faults, c.faults[hi])
				}
				if st[ti].ECChecked != c.ecChecked[hi] {
					t.Errorf("%s/%v: ECChecked %d, want %d", label, tier, st[ti].ECChecked, c.ecChecked[hi])
				}
				if st[ti].Halted != halt {
					t.Errorf("%s/%v: Halted = %v", label, tier, st[ti].Halted)
				}
			}
			diffFunctional(t, label, st[0], st[1])
			for i := range mem[0] {
				if mem[0][i] != mem[1][i] {
					t.Errorf("%s: memory byte %d diverges: cycle=%#02x compiled=%#02x", label, i, mem[0][i], mem[1][i])
					break
				}
			}
		}
	}
}
