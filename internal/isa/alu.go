package isa

import "math"

// alu.go — the lane semantics of every ALU opcode, defined once. Both
// execution tiers run these row kernels over their register-major warp
// register files, and the contract specializer folds constants by
// running them on broadcast rows, so the three agree by construction.
// What the kernels compute is checked independently of them by the IR
// interpreter (the random-kernel differential fuzz) and by hand-written
// edge expectations (alu_test.go).

// Sx32 sign-extends a 32-bit value into the 64-bit register convention:
// i32 values live sign-extended in 64-bit registers.
func Sx32(x int32) uint64 { return uint64(int64(x)) }

func f32bits(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func bitsf32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// Kernel computes one ALU opcode for all 32 lanes of a warp from source
// rows a, b and c into res; sel is the lane mask of the selector
// predicate (ALU.Sel), which only SEL reads. Lane l of res depends only
// on lane l of the sources, so res may alias any of them. Callers
// compute the lanes outside the exec mask too and discard them, which is
// safe because no ALU opcode has a side effect or can trap (the ISA has
// no division).
type Kernel func(res, a, b, c *[32]uint64, sel uint32)

// ALU is an ALU instruction's semantics, resolved once from its opcode
// and Aux field (see Instr.ALU).
type ALU struct {
	// Row computes the register result; nil for SETP, FSETP and every
	// opcode outside the ALU.
	Row Kernel
	// Narrow reports that the result commits narrowed to a sign-extended
	// 32-bit value: an integer opcode without W64.
	Narrow bool
	// Sel is the predicate whose lane mask the caller passes to Row (SEL's
	// selector; PT for every other opcode, which ignores it).
	Sel PredReg
	// cmp computes SETP's or FSETP's masks of the lanes where a < b,
	// a == b and a > b (a NaN lane is in none of them), and op is the
	// comparator Set combines them by.
	cmp func(a, b *[32]uint64) (lt, eq, gt uint32)
	op  CmpOp
}

// Set returns the lanes of rows a and b where the instruction's
// comparison holds (none for an unknown comparator). Only SETP and
// FSETP have one.
func (k *ALU) Set(a, b *[32]uint64) uint32 {
	lt, eq, gt := k.cmp(a, b)
	switch k.op {
	case CmpLT:
		return lt
	case CmpLE:
		return lt | eq
	case CmpGT:
		return gt
	case CmpGE:
		return gt | eq
	case CmpEQ:
		return eq
	case CmpNE:
		return ^eq
	}
	return 0
}

// ALU resolves the instruction's ALU semantics: the kernel chosen from
// the opcode and Aux (min or max, shift width, MUFU function), whether
// the result narrows, and the comparison of SETP and FSETP. Opcodes
// outside the ALU (memory, control, S2R) resolve to the zero ALU.
func (in *Instr) ALU() ALU {
	k := ALU{Sel: PT, Narrow: in.Op.IsInt() && !in.W64()}
	w64 := in.W64()
	switch in.Op {
	case MOV:
		k.Row = movRow
	case IADD:
		k.Row = iaddRow
	case IADD3:
		k.Row = iadd3Row
	case IMUL:
		k.Row = imulRow
	case IMAD:
		k.Row = imadRow
	case IMNMX:
		k.Row = pick(in.IsMax(), imaxRow, iminRow)
	case SHL:
		k.Row = pick(w64, shl64Row, shl32Row)
	case SHR:
		// The 32-bit form is a logical shift; the narrowing sign-extends
		// its result into the register.
		k.Row = pick(w64, shr64Row, shr32Row)
	case AND:
		k.Row = andRow
	case OR:
		k.Row = orRow
	case XOR:
		k.Row = xorRow
	case SEL:
		k.Row, k.Sel = selRow, PredReg(in.Aux&7)
	case SETP:
		k.cmp, k.op = cmpSigned, CmpOp(in.Aux)
	case FSETP:
		k.cmp, k.op = cmpF32, CmpOp(in.Aux)
	case FADD:
		k.Row = faddRow
	case FMUL:
		k.Row = fmulRow
	case FFMA:
		k.Row = ffmaRow
	case MUFU:
		k.Row = mufuRow(MufuFn(in.Aux))
	case F2I:
		k.Row = f2iRow
	case I2F:
		k.Row = i2fRow
	}
	return k
}

func pick(cond bool, yes, no Kernel) Kernel {
	if cond {
		return yes
	}
	return no
}

func movRow(res, a, _, _ *[32]uint64, _ uint32) { *res = *a }

func iaddRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] + b[l]
	}
}

func iadd3Row(res, a, b, c *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] + b[l] + c[l]
	}
}

func imulRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = uint64(int64(a[l]) * int64(b[l]))
	}
}

func imadRow(res, a, b, c *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = uint64(int64(a[l])*int64(b[l]) + int64(c[l]))
	}
}

// IMNMX compares the full 64-bit registers as signed values at either
// width: 32-bit operands live sign-extended, so the order is the same.
func iminRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = uint64(min(int64(a[l]), int64(b[l])))
	}
}

func imaxRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = uint64(max(int64(a[l]), int64(b[l])))
	}
}

func shl32Row(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = uint64(uint32(a[l]) << (b[l] & 31))
	}
}

func shl64Row(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] << (b[l] & 63)
	}
}

func shr32Row(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = uint64(uint32(a[l]) >> (b[l] & 31))
	}
}

func shr64Row(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] >> (b[l] & 63)
	}
}

func andRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] & b[l]
	}
}

func orRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] | b[l]
	}
}

func xorRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = a[l] ^ b[l]
	}
}

func selRow(res, a, b, _ *[32]uint64, sel uint32) {
	for l := range res {
		if sel>>l&1 != 0 {
			res[l] = a[l]
		} else {
			res[l] = b[l]
		}
	}
}

func faddRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = bitsf32(f32bits(a[l]) + f32bits(b[l]))
	}
}

func fmulRow(res, a, b, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = bitsf32(f32bits(a[l]) * f32bits(b[l]))
	}
}

func ffmaRow(res, a, b, c *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = bitsf32(f32bits(a[l])*f32bits(b[l]) + f32bits(c[l]))
	}
}

// mufuRow returns the special-function-unit kernel of fn; an unknown
// function computes 0.
func mufuRow(fn MufuFn) Kernel {
	var f func(float64) float64
	switch fn {
	case MufuRCP:
		return func(res, a, _, _ *[32]uint64, _ uint32) {
			for l := range res {
				res[l] = bitsf32(1 / f32bits(a[l]))
			}
		}
	case MufuSQRT:
		f = math.Sqrt
	case MufuEX2:
		f = math.Exp2
	case MufuLG2:
		f = math.Log2
	case MufuSIN:
		f = math.Sin
	default:
		return func(res, _, _, _ *[32]uint64, _ uint32) { *res = [32]uint64{} }
	}
	return func(res, a, _, _ *[32]uint64, _ uint32) {
		for l := range res {
			res[l] = bitsf32(float32(f(float64(f32bits(a[l])))))
		}
	}
}

// f2iRow truncates toward zero. NaN and values outside the int32 range
// convert to math.MinInt32 (the x86 "integer indefinite"), pinned here
// rather than left to the host's float conversion, which Go does not
// define for them.
func f2iRow(res, a, _, _ *[32]uint64, _ uint32) {
	for l := range res {
		f := f32bits(a[l])
		if f >= -(1<<31) && f < 1<<31 {
			res[l] = Sx32(int32(f))
		} else {
			res[l] = Sx32(math.MinInt32)
		}
	}
}

func i2fRow(res, a, _, _ *[32]uint64, _ uint32) {
	for l := range res {
		res[l] = bitsf32(float32(int64(a[l])))
	}
}

// cmpSigned compares two rows as 64-bit signed integers.
func cmpSigned(a, b *[32]uint64) (lt, eq, gt uint32) {
	for l := range a {
		x, y := int64(a[l]), int64(b[l])
		if x < y {
			lt |= 1 << l
		}
		if x == y {
			eq |= 1 << l
		}
	}
	return lt, eq, ^(lt | eq)
}

// cmpF32 compares two rows as float32 payloads.
func cmpF32(a, b *[32]uint64) (lt, eq, gt uint32) {
	for l := range a {
		x, y := f32bits(a[l]), f32bits(b[l])
		if x < y {
			lt |= 1 << l
		}
		if x == y {
			eq |= 1 << l
		}
		if x > y {
			gt |= 1 << l
		}
	}
	return lt, eq, gt
}
