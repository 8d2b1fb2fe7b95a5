package peval

import (
	"math/rand"
	"testing"

	"lmi/internal/isa"
)

// TestEvalALUMatchesRowLane0 checks that the specializer's folded value
// of every integer ALU opcode equals lane 0 of the row the execution
// tiers compute when lane 0 holds the known operands and the other lanes
// hold unrelated values: broadcast evaluation at lane 0 is the per-lane
// result, in both forms and at both widths.
func TestEvalALUMatchesRowLane0(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ops := []isa.Opcode{isa.MOV, isa.IADD, isa.IADD3, isa.IMUL, isa.IMAD, isa.IMNMX,
		isa.SHL, isa.SHR, isa.AND, isa.OR, isa.XOR, isa.SEL}
	vals := []uint64{0, 1, 31, 32, 63, 64, ^uint64(0), 1 << 31, 1 << 63, 0x7fff_ffff, 0x1_2345_6789}
	pick := func() uint64 {
		if r.Intn(2) == 0 {
			return vals[r.Intn(len(vals))]
		}
		return r.Uint64()
	}
	for trial := 0; trial < 2000; trial++ {
		in := isa.Instr{Op: ops[r.Intn(len(ops))], Dst: 9, Src: [3]isa.Reg{1, 2, 3}, Pred: isa.PT}
		if r.Intn(2) == 0 {
			in.Aux |= isa.AuxW64
		}
		if in.Op == isa.IMNMX {
			in.Aux |= uint8(r.Intn(2))
		}
		if in.Op == isa.SEL {
			in.Aux |= 4 // selector P4
		}
		if r.Intn(2) == 0 && in.Op.ImmSrcIndex() >= 0 {
			in.HasImm, in.Imm = true, int32(pick())
		}
		st := &consts{regs: make([]cval, 10)}
		entryState(st)
		for i := range in.Src {
			st.setReg(in.Src[i], pick())
		}
		st.pv[4] = r.Intn(2) == 0

		got, ok := evalALU(&in, st)
		if !ok {
			t.Fatalf("%s: not evaluated with every source known", in.String())
		}
		var rows [3][32]uint64
		for i := range rows {
			for l := range rows[i] {
				rows[i][l] = r.Uint64()
			}
			v, _ := st.reg(in.Src[i])
			if in.HasImm && i == in.Op.ImmSrcIndex() {
				v = isa.Sx32(in.Imm)
			}
			rows[i][0] = v
		}
		sel := r.Uint32() &^ 1
		if st.pv[4] {
			sel |= 1
		}
		k := in.ALU()
		var res [32]uint64
		k.Row(&res, &rows[0], &rows[1], &rows[2], sel)
		want := res[0]
		if k.Narrow {
			want = isa.Sx32(int32(want))
		}
		if got != want {
			t.Fatalf("%s: folded %#x, row lane 0 %#x", in.String(), got, want)
		}
	}
}
