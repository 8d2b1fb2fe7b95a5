package isa

import (
	"math"
	"testing"
)

// aluEval runs in's kernel on rows whose lane 0 holds a, b and c and
// whose other lanes hold unrelated values, and returns lane 0 narrowed
// as the kernel says, the way both tiers commit it. It also checks the
// broadcast form peval folds with: every lane of the kernel run on
// broadcast rows must equal that lane-0 value.
func aluEval(t *testing.T, in Instr, a, b, c uint64, sel uint32) uint64 {
	t.Helper()
	k := in.ALU()
	if k.Row == nil {
		t.Fatalf("%s: no row kernel", in.String())
	}
	narrow := func(v uint64) uint64 {
		if k.Narrow {
			return Sx32(int32(v))
		}
		return v
	}
	var ra, rb, rc, res [32]uint64
	for l := range ra {
		ra[l], rb[l], rc[l] = uint64(l)*0x9e3779b97f4a7c15, uint64(l)+7, ^uint64(l)
	}
	ra[0], rb[0], rc[0] = a, b, c
	k.Row(&res, &ra, &rb, &rc, sel)
	got := narrow(res[0])
	for l := range ra {
		ra[l], rb[l], rc[l] = a, b, c
	}
	mask := uint32(0)
	if sel&1 != 0 {
		mask = ^uint32(0)
	}
	k.Row(&res, &ra, &rb, &rc, mask)
	for l, v := range res {
		if narrow(v) != got {
			t.Fatalf("%s: broadcast lane %d = %#x, mixed-row lane 0 = %#x", in.String(), l, narrow(v), got)
		}
	}
	return got
}

func f32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// TestALUEdgeValues pins the kernels' edge behaviour against
// hand-written expectations, independently of the IR interpreter.
func TestALUEdgeValues(t *testing.T) {
	const neg1 = ^uint64(0)
	minI32 := Sx32(math.MinInt32)
	nan := f32(float32(math.NaN()))
	cases := []struct {
		name    string
		in      Instr
		a, b, c uint64
		sel     uint32
		want    uint64
	}{
		// i32 wraps and narrows sign-extended; W64 does not.
		{"iadd32 wrap", Instr{Op: IADD}, math.MaxInt32, 1, 0, 0, minI32},
		{"iadd64 no wrap", Instr{Op: IADD, Aux: AuxW64}, math.MaxInt32, 1, 0, 0, 1 << 31},
		{"imul32 wrap", Instr{Op: IMUL}, 1 << 16, 1 << 16, 0, 0, 0},
		{"imad32 wrap", Instr{Op: IMAD}, 1 << 16, 1 << 15, 5, 0, minI32 + 5},
		{"iadd3 32", Instr{Op: IADD3}, math.MaxInt32, math.MaxInt32, 2, 0, 0},
		{"mov32 narrows", Instr{Op: MOV}, 0x1_8000_0000, 0, 0, 0, minI32},
		{"mov64 keeps", Instr{Op: MOV, Aux: AuxW64}, 0x1_8000_0000, 0, 0, 0, 0x1_8000_0000},
		// Shift counts are masked to the operand width.
		{"shl32 by 31", Instr{Op: SHL}, 1, 31, 0, 0, minI32},
		{"shl32 by 32", Instr{Op: SHL}, 1, 32, 0, 0, 1},
		{"shl64 by 63", Instr{Op: SHL, Aux: AuxW64}, 1, 63, 0, 0, 1 << 63},
		{"shl64 by 64", Instr{Op: SHL, Aux: AuxW64}, 1, 64, 0, 0, 1},
		{"shr32 by 31", Instr{Op: SHR}, neg1, 31, 0, 0, 1},
		{"shr32 by 32", Instr{Op: SHR}, neg1, 32, 0, 0, neg1},
		{"shr64 by 63", Instr{Op: SHR, Aux: AuxW64}, neg1, 63, 0, 0, 1},
		{"shr64 by 64", Instr{Op: SHR, Aux: AuxW64}, neg1, 64, 0, 0, neg1},
		// IMNMX at each width: Aux bit 0 is max, AuxW64 rides along.
		{"min32", Instr{Op: IMNMX}, neg1, 1, 0, 0, neg1},
		{"max32", Instr{Op: IMNMX, Aux: 1}, neg1, 1, 0, 0, 1},
		{"min64", Instr{Op: IMNMX, Aux: AuxW64}, 1 << 40, 5, 0, 0, 5},
		{"max64", Instr{Op: IMNMX, Aux: AuxW64 | 1}, 1 << 40, 5, 0, 0, 1 << 40},
		{"max64 signed", Instr{Op: IMNMX, Aux: AuxW64 | 1}, 1 << 63, 5, 0, 0, 5},
		// SEL picks a where the selector lane is set.
		{"sel set", Instr{Op: SEL, Aux: 2}, 11, 22, 0, 1, 11},
		{"sel clear", Instr{Op: SEL, Aux: 2}, 11, 22, 0, 0, 22},
		{"and", Instr{Op: AND, Aux: AuxW64}, 0xf0f0, 0xff00, 0, 0, 0xf000},
		{"or", Instr{Op: OR, Aux: AuxW64}, 0xf0f0, 0xff00, 0, 0, 0xfff0},
		{"xor", Instr{Op: XOR, Aux: AuxW64}, 0xf0f0, 0xff00, 0, 0, 0x0ff0},
		// F2I truncates; NaN and out-of-range values give MinInt32.
		{"f2i trunc", Instr{Op: F2I}, f32(-2.75), 0, 0, 0, Sx32(-2)},
		{"f2i min exact", Instr{Op: F2I}, f32(-(1 << 31)), 0, 0, 0, minI32},
		{"f2i 3e9", Instr{Op: F2I}, f32(3e9), 0, 0, 0, minI32},
		{"f2i -3e9", Instr{Op: F2I}, f32(-3e9), 0, 0, 0, minI32},
		{"f2i +inf", Instr{Op: F2I}, f32(float32(math.Inf(1))), 0, 0, 0, minI32},
		{"f2i nan", Instr{Op: F2I}, nan, 0, 0, 0, minI32},
		{"i2f neg", Instr{Op: I2F}, Sx32(-3), 0, 0, 0, f32(-3)},
		{"i2f 64", Instr{Op: I2F}, 1 << 40, 0, 0, 0, f32(1 << 40)},
		{"fadd", Instr{Op: FADD}, f32(1.5), f32(2.25), 0, 0, f32(3.75)},
		{"fmul", Instr{Op: FMUL}, f32(1.5), f32(-2), 0, 0, f32(-3)},
		{"ffma", Instr{Op: FFMA}, f32(1.5), f32(2), f32(0.25), 0, f32(3.25)},
		{"rcp", Instr{Op: MUFU, Aux: uint8(MufuRCP)}, f32(4), 0, 0, 0, f32(0.25)},
		{"rcp zero", Instr{Op: MUFU, Aux: uint8(MufuRCP)}, f32(0), 0, 0, 0, f32(float32(math.Inf(1)))},
		{"sqrt", Instr{Op: MUFU, Aux: uint8(MufuSQRT)}, f32(9), 0, 0, 0, f32(3)},
		{"ex2", Instr{Op: MUFU, Aux: uint8(MufuEX2)}, f32(-2), 0, 0, 0, f32(0.25)},
		{"lg2", Instr{Op: MUFU, Aux: uint8(MufuLG2)}, f32(8), 0, 0, 0, f32(3)},
		{"sin", Instr{Op: MUFU, Aux: uint8(MufuSIN)}, f32(0), 0, 0, 0, f32(0)},
		{"mufu unknown", Instr{Op: MUFU, Aux: 31}, f32(2), 0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := aluEval(t, c.in, c.a, c.b, c.c, c.sel); got != c.want {
			t.Errorf("%s: got %#x, want %#x", c.name, got, c.want)
		}
	}
	// A NaN lane compares false under every ordered comparator and true
	// under NE; an unknown comparator holds nowhere.
	for _, c := range []struct {
		op   CmpOp
		want bool
	}{{CmpLT, false}, {CmpLE, false}, {CmpGT, false}, {CmpGE, false}, {CmpEQ, false}, {CmpNE, true}, {CmpOp(9), false}} {
		for _, ab := range [][2]uint64{{nan, f32(1)}, {f32(1), nan}, {nan, nan}} {
			in := Instr{Op: FSETP, Aux: uint8(c.op)}
			k := in.ALU()
			var ra, rb [32]uint64
			ra[0], rb[0] = ab[0], ab[1]
			if got := k.Set(&ra, &rb)&1 != 0; got != c.want {
				t.Errorf("FSETP.%s %#x, %#x = %v, want %v", c.op, ab[0], ab[1], got, c.want)
			}
		}
	}
	// SETP compares the full 64-bit registers as signed values.
	for _, c := range []struct {
		op   CmpOp
		a, b uint64
		want bool
	}{
		{CmpLT, neg1, 1, true}, {CmpGT, 1 << 63, 0, false}, {CmpLE, 5, 5, true},
		{CmpGE, 4, 5, false}, {CmpEQ, 1 << 40, 0, false}, {CmpNE, 1 << 40, 0, true},
	} {
		in := Instr{Op: SETP, Aux: uint8(c.op)}
		k := in.ALU()
		var ra, rb [32]uint64
		ra[0], rb[0] = c.a, c.b
		if got := k.Set(&ra, &rb)&1 != 0; got != c.want {
			t.Errorf("SETP.%s %#x, %#x = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

// TestALUSelMask pins that SEL picks lane by lane from the selector
// mask, not from one bit of it.
func TestALUSelMask(t *testing.T) {
	in := Instr{Op: SEL, Aux: 3 | AuxW64}
	k := in.ALU()
	if k.Sel != 3 {
		t.Fatalf("SEL selector = %s, want P3", k.Sel)
	}
	var a, b, res [32]uint64
	for l := range a {
		a[l], b[l] = uint64(100+l), uint64(200+l)
	}
	const sel = 0xa5a5_0f0f
	k.Row(&res, &a, &b, &b, sel)
	for l, v := range res {
		want := b[l]
		if sel>>l&1 != 0 {
			want = a[l]
		}
		if v != want {
			t.Errorf("lane %d = %d, want %d", l, v, want)
		}
	}
}

// TestALUResolution pins which opcodes have a row kernel, a comparison,
// or neither, and which narrow.
func TestALUResolution(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		in := Instr{Op: op}
		k := in.ALU()
		isCmp := op == SETP || op == FSETP
		isRow := (op.IsInt() || op.IsFloat()) && !isCmp
		if (k.Row != nil) != isRow || (k.cmp != nil) != isCmp {
			t.Errorf("%s: row %v, cmp %v", op, k.Row != nil, k.cmp != nil)
		}
		if isRow && k.Narrow != op.IsInt() {
			t.Errorf("%s: narrow %v", op, k.Narrow)
		}
		in.Aux = AuxW64
		if k := in.ALU(); k.Narrow {
			t.Errorf("%s: narrows under W64", op)
		}
	}
}
