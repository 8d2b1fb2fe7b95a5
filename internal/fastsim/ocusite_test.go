package fastsim_test

import (
	"context"
	"encoding/binary"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/core"
	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/safety"
	"lmi/internal/sim"
)

// ocuLane is one thread of TestOCUSite: the pointer and offset it loads,
// and the value the A-hinted IADD must leave in its register.
type ocuLane struct {
	ptr, off, want uint64
}

// ocuSentinel is the value of a lane's result register before the
// instruction under test; a lane outside the exec mask keeps it.
func ocuSentinel(lane int) uint64 { return 0x5e5e000000000000 + uint64(lane) }

// TestOCUSite runs the OCU site of both tiers against hand-written
// values. Each of 8 threads loads a pointer, an offset and the sentinel
// of its result register, then executes the guarded instruction under
// test: @P0 IADD R7 = R6 + R5, 32-bit, with the A hint and the S hint
// naming Src[1] (R5, the pointer) as the operand the OCU checks. P0 is
// false on lanes 2 and 6, so the exec mask has gaps. An extent-31
// pointer with all upper bits set survives 32-bit arithmetic as long as
// bit 31 stays set, so the raw sums of lanes 0 and 7, whose upper words
// the 64-bit add wraps to zero, are in bounds only after the sign
// extension; lane 3 steps 16 bytes below its 256-byte buffer and LMI
// clears its extent; lane 4's pointer is already invalid.
func TestOCUSite(t *testing.T) {
	const a31 = 0xFFFFFFFFFFFFFF00 // extent 31, bits 58:32 set
	const e1 = 0x08000000FFFFFF00  // extent 1: a 256-byte buffer at 0xFFFFFF00
	lanes := []ocuLane{
		{a31, 0x0000000100000010, 0xFFFFFFFFFFFFFF10},
		{a31, 0x20, 0xFFFFFFFFFFFFFF20},
		{a31, 0x20, ocuSentinel(2)},
		{e1, 0xFFFFFFFFFFFFFFF0, 0x07FFFFFFFFFFFEF0},
		{0x1000, 8, 0x1008},
		{a31, 0, a31},
		{a31, 0x40, ocuSentinel(6)},
		{a31, 0x00000000FFFFFFF0, 0xFFFFFFFFFFFFFEF0},
	}
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	r := func(a, b isa.Reg) [3]isa.Reg { return [3]isa.Reg{a, b, isa.RZ} }
	w64 := uint8(isa.AuxW64)
	instrs := []isa.Instr{
		{Op: isa.S2R, Dst: 0, Src: rz, Aux: uint8(isa.SRTidX)},
		{Op: isa.LDC, Dst: 1, Src: rz, Imm: int32(compiler.ParamConstBase + 8), Aux: 3},
		{Op: isa.LDC, Dst: 2, Src: rz, Imm: int32(compiler.ParamConstBase), Aux: 3},
		{Op: isa.SHL, Dst: 3, Src: r(0, isa.RZ), HasImm: true, Imm: 3, Aux: w64},
		{Op: isa.IADD, Dst: 4, Src: r(2, 3), Aux: w64},
		{Op: isa.LDG, Dst: 5, Src: r(4, isa.RZ), Aux: 3},
		{Op: isa.LDG, Dst: 6, Src: r(4, isa.RZ), Imm: 64, Aux: 3},
		{Op: isa.LDG, Dst: 7, Src: r(4, isa.RZ), Imm: 128, Aux: 3},
		{Op: isa.AND, Dst: 8, Src: r(0, isa.RZ), HasImm: true, Imm: 3},
		{Op: isa.SETP, Dst: 0, Src: r(8, isa.RZ), HasImm: true, Imm: 2, Aux: uint8(isa.CmpNE)},
		{Op: isa.IADD, Dst: 7, Src: r(6, 5), Pred: 0, Hint: isa.Hint{A: true, S: true}},
		{Op: isa.IADD, Dst: 9, Src: r(1, 3), Aux: w64},
		{Op: isa.STG, Dst: isa.RZ, Src: r(9, 7), Aux: 3},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz},
	}
	for i := range instrs {
		if i != 10 {
			instrs[i].Pred = isa.PT
		}
	}
	p := prog("ocu_site", 10, instrs)

	in := make([]byte, 3*64)
	for l, c := range lanes {
		binary.LittleEndian.PutUint64(in[8*l:], c.ptr)
		binary.LittleEndian.PutUint64(in[64+8*l:], c.off)
		binary.LittleEndian.PutUint64(in[128+8*l:], ocuSentinel(l))
	}
	for _, tier := range []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled} {
		lmi := safety.NewLMI()
		dev, err := sim.NewDevice(sim.ScaledConfig(1), lmi)
		if err != nil {
			t.Fatal(err)
		}
		inPtr, err := dev.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		outPtr, err := dev.Malloc(256)
		if err != nil {
			t.Fatal(err)
		}
		dev.WriteGlobal(inPtr, in)
		st, err := fastsim.LaunchTierCtx(context.Background(), tier, dev, p, 1, len(lanes), []uint64{inPtr, outPtr, uint64(len(lanes))})
		if err != nil {
			t.Fatalf("%v tier: %v", tier, err)
		}
		if st.Halted || len(st.Faults) != 0 {
			t.Fatalf("%v tier: unexpected halt/faults: %v", tier, st.Faults)
		}
		out := dev.ReadGlobal(outPtr, 8*len(lanes))
		for l, c := range lanes {
			if got := binary.LittleEndian.Uint64(out[8*l:]); got != c.want {
				t.Errorf("%v tier: lane %d = %#x, want %#x", tier, l, got, c.want)
			}
		}
		if st.PointerChecks != 6 {
			t.Errorf("%v tier: PointerChecks = %d, want 6", tier, st.PointerChecks)
		}
		if want := (core.OCUStats{Checks: 6, Overflows: 1, InvalidIn: 1}); lmi.OCU.Stats != want {
			t.Errorf("%v tier: OCU stats %+v, want %+v", tier, lmi.OCU.Stats, want)
		}
	}
}
