package fastsim_test

import (
	"fmt"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// operandCase is one instruction under test in TestCompiledOperandForms.
type operandCase struct {
	name string
	in   isa.Instr
}

// Register plan of the operand-form kernels: R0 = tid, R1 = out,
// R2..R4 integer sources, R5..R7 floating-point sources, R8 the
// destination (seeded with a sentinel so guard-false lanes show their
// old value), R9 an RZ witness, R10 the thread's output address.
const (
	opDst     isa.Reg = 8
	opWitness isa.Reg = 9
	opAddr    isa.Reg = 10
	opNumRegs         = 11
)

// operandKernel wraps one instruction under test: it seeds the source
// registers with lane-varying values (sign changes, upper-word bits,
// zero, infinities and NaNs on the floating-point side), the guard
// predicates P0 (true on some lanes) and P1 (true on none), P2 (the
// SETP/FSETP destination) and the destination sentinel, runs the
// instruction, and stores R8 and an RZ witness as two 64-bit words per
// thread into out.
func operandKernel(name string, test isa.Instr) *isa.Program {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	r := func(a, b, c isa.Reg) [3]isa.Reg { return [3]isa.Reg{a, b, c} }
	w64 := uint8(isa.AuxW64)
	pt := func(ins ...isa.Instr) []isa.Instr {
		for i := range ins {
			ins[i].Pred = isa.PT
		}
		return ins
	}
	instrs := pt(
		isa.Instr{Op: isa.S2R, Dst: 0, Src: rz, Aux: uint8(isa.SRTidX)},
		isa.Instr{Op: isa.LDC, Dst: 1, Src: rz, Imm: int32(compiler.ParamConstBase + 8), Aux: 3},
		// R2 = tid * 0x3b9aca07 (wraps to both signs in 32 bits).
		isa.Instr{Op: isa.IMUL, Dst: 2, Src: r(0, isa.RZ, isa.RZ), HasImm: true, Imm: 0x3b9aca07},
		// R3 = R2<<21 ^ tid (64-bit, upper-word bits set).
		isa.Instr{Op: isa.SHL, Dst: 3, Src: r(2, isa.RZ, isa.RZ), HasImm: true, Imm: 21, Aux: w64},
		isa.Instr{Op: isa.XOR, Dst: 3, Src: r(3, 0, isa.RZ), Aux: w64},
		// R4 = tid - 20 (small, zero on one lane, negative on others).
		isa.Instr{Op: isa.IADD, Dst: 4, Src: r(0, isa.RZ, isa.RZ), HasImm: true, Imm: -20},
		// R5 = float(R4), R6 = float(R2), R7 = 1/R5 (inf at tid 20).
		isa.Instr{Op: isa.I2F, Dst: 5, Src: r(4, isa.RZ, isa.RZ)},
		isa.Instr{Op: isa.I2F, Dst: 6, Src: r(2, isa.RZ, isa.RZ)},
		isa.Instr{Op: isa.MUFU, Dst: 7, Src: r(5, isa.RZ, isa.RZ), Aux: uint8(isa.MufuRCP)},
		// P0 = (tid & 3) < 2, P1 = 0 < -1 (false everywhere),
		// P2 = tid >= 9.
		isa.Instr{Op: isa.AND, Dst: opAddr, Src: r(0, isa.RZ, isa.RZ), HasImm: true, Imm: 3},
		isa.Instr{Op: isa.SETP, Dst: 0, Src: r(opAddr, isa.RZ, isa.RZ), HasImm: true, Imm: 2, Aux: uint8(isa.CmpLT)},
		isa.Instr{Op: isa.SETP, Dst: 1, Src: rz, HasImm: true, Imm: -1, Aux: uint8(isa.CmpLT)},
		isa.Instr{Op: isa.SETP, Dst: 2, Src: r(0, isa.RZ, isa.RZ), HasImm: true, Imm: 9, Aux: uint8(isa.CmpGE)},
		// R8 = R3 ^ 0x5a5a5a5a (the sentinel).
		isa.Instr{Op: isa.XOR, Dst: opDst, Src: r(3, isa.RZ, isa.RZ), HasImm: true, Imm: 0x5a5a5a5a, Aux: w64},
	)
	instrs = append(instrs, test)
	if test.Op == isa.SETP || test.Op == isa.FSETP {
		// Materialise the destination predicate: R8 = P2 ? R2 : R3.
		instrs = append(instrs, pt(isa.Instr{Op: isa.SEL, Dst: opDst, Src: r(2, 3, isa.RZ), Aux: 2 | w64})...)
	}
	instrs = append(instrs, pt(
		// R9 = RZ + tid: reads RZ after the instruction under test.
		isa.Instr{Op: isa.IADD, Dst: opWitness, Src: r(isa.RZ, 0, isa.RZ), Aux: w64},
		isa.Instr{Op: isa.SHL, Dst: opAddr, Src: r(0, isa.RZ, isa.RZ), HasImm: true, Imm: 4, Aux: w64},
		isa.Instr{Op: isa.IADD, Dst: opAddr, Src: r(1, opAddr, isa.RZ), Aux: w64},
		isa.Instr{Op: isa.STG, Dst: isa.RZ, Src: r(opAddr, opDst, isa.RZ), Aux: 3},
		isa.Instr{Op: isa.STG, Dst: isa.RZ, Src: r(opAddr, opWitness, isa.RZ), Imm: 8, Aux: 3},
		isa.Instr{Op: isa.EXIT, Dst: isa.RZ, Src: rz},
	)...)
	return prog(name, opNumRegs, instrs)
}

// operandCases builds the table: every non-memory opcode in every
// source form (all registers; the immediate form, for the opcodes that
// have one; RZ in the operand the immediate would replace, or Src[0]
// when there is none), with a
// register or RZ destination, 32- or 64-bit width, and an unconditional
// guard, a guard true on some lanes, or a guard true on none. SETP and
// FSETP write a predicate, so their destination axis is the comparison
// instead; S2R has no source operand, so its source axis is the special
// register.
func operandCases() []operandCase {
	type opSpec struct {
		name string
		op   isa.Opcode
		aux  uint8
		fp   bool
	}
	specs := []opSpec{
		{"IADD", isa.IADD, 0, false}, {"IADD3", isa.IADD3, 0, false},
		{"IMUL", isa.IMUL, 0, false}, {"IMAD", isa.IMAD, 0, false},
		{"IMNMX.MIN", isa.IMNMX, 0, false}, {"IMNMX.MAX", isa.IMNMX, 1, false},
		{"SHL", isa.SHL, 0, false}, {"SHR", isa.SHR, 0, false},
		{"AND", isa.AND, 0, false}, {"OR", isa.OR, 0, false}, {"XOR", isa.XOR, 0, false},
		{"MOV", isa.MOV, 0, false}, {"SEL", isa.SEL, 0, false},
		{"FADD", isa.FADD, 0, true}, {"FMUL", isa.FMUL, 0, true}, {"FFMA", isa.FFMA, 0, true},
		{"MUFU.RCP", isa.MUFU, uint8(isa.MufuRCP), true}, {"MUFU.SQRT", isa.MUFU, uint8(isa.MufuSQRT), true},
		{"MUFU.EX2", isa.MUFU, uint8(isa.MufuEX2), true}, {"MUFU.LG2", isa.MUFU, uint8(isa.MufuLG2), true},
		{"MUFU.SIN", isa.MUFU, uint8(isa.MufuSIN), true},
		{"F2I", isa.F2I, 0, true}, {"I2F", isa.I2F, 0, false},
	}
	guards := []isa.PredReg{isa.PT, 0, 1}
	widths := []struct {
		name string
		aux  uint8
	}{{"w32", 0}, {"w64", isa.AuxW64}}
	forms := []string{"reg", "imm", "rz"}

	var out []operandCase
	add := func(name string, in isa.Instr) {
		for _, g := range guards {
			for _, w := range widths {
				c := in
				c.Pred = g
				c.Aux |= w.aux
				out = append(out, operandCase{fmt.Sprintf("%s/%s/%s", name, w.name, g), c})
			}
		}
	}
	for _, s := range specs {
		for _, form := range forms {
			if form == "imm" && s.op.ImmSrcIndex() < 0 {
				continue // no immediate form (TestNoImmediateFormRejected)
			}
			src := [3]isa.Reg{2, 3, 4}
			if s.fp {
				src = [3]isa.Reg{5, 6, 7}
			}
			in := isa.Instr{Op: s.op, Src: src, Aux: s.aux} // SEL selects on P0
			slot := max(s.op.ImmSrcIndex(), 0)
			switch form {
			case "imm":
				in.HasImm, in.Imm = true, -0x7654321
			case "rz":
				in.Src[slot] = isa.RZ
			}
			for _, dst := range []isa.Reg{opDst, isa.RZ} {
				in.Dst = dst
				add(fmt.Sprintf("%s/%s/%s", s.name, form, dst), in)
			}
		}
	}
	for _, op := range []isa.Opcode{isa.SETP, isa.FSETP} {
		src := [3]isa.Reg{2, 4, isa.RZ}
		if op == isa.FSETP {
			src = [3]isa.Reg{5, 7, isa.RZ}
		}
		for _, form := range forms {
			for cmp := isa.CmpLT; cmp <= isa.CmpNE; cmp++ {
				in := isa.Instr{Op: op, Dst: 2, Src: src, Aux: uint8(cmp)}
				switch form {
				case "imm":
					in.HasImm, in.Imm = true, -7
				case "rz":
					in.Src[1] = isa.RZ
				}
				add(fmt.Sprintf("%s/%s/%s", op, form, cmp), in)
			}
		}
	}
	for sr := isa.SRTidX; sr <= isa.SRNctaidY; sr++ {
		for _, dst := range []isa.Reg{opDst, isa.RZ} {
			add(fmt.Sprintf("S2R/%s/%s", sr, dst),
				isa.Instr{Op: isa.S2R, Dst: dst, Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, Aux: uint8(sr)})
		}
	}
	return out
}

// TestCompiledOperandForms pins the compiled tier's operand routing
// against the cycle tier, value by value: each case runs one
// instruction in a 48-thread block (so the second warp is partial) and
// both tiers' stored per-thread results must agree byte for byte
// (launchBoth compares the out buffer; n leaves out's masked last
// element past the 16 bytes each thread stores).
func TestCompiledOperandForms(t *testing.T) {
	const block = 48
	cases := operandCases()
	for _, c := range cases {
		p := operandKernel(c.name, c.in)
		cycle, fast := launchBoth(t, p, workloads.VariantBase, sim.ScaledConfig(1), 1, block, block*4+1)
		diffFunctional(t, c.name, cycle, fast)
		if cycle.Halted || len(cycle.Faults) != 0 {
			t.Fatalf("%s: unexpected halt/faults: %v", c.name, cycle.Faults)
		}
	}
}

// TestNoImmediateFormRejected pins that an opcode without an immediate
// operand (ImmSrcIndex -1) has no immediate form: Validate rejects the
// instruction, and CompileWords rejects the microcode word that carries
// the immediate bit, so no tier can run an immediate it would ignore.
func TestNoImmediateFormRejected(t *testing.T) {
	for _, op := range []isa.Opcode{isa.MUFU, isa.F2I, isa.I2F} {
		in := isa.Instr{Op: op, Dst: opDst, Src: [3]isa.Reg{5, 6, 7}, Pred: isa.PT}
		p := operandKernel(op.String(), in)
		words, err := isa.EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: register form: %v", op, err)
		}
		in.HasImm, in.Imm = true, -0x7654321
		if err := in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the immediate form", op)
		}
		pc := len(p.Instrs) - 7 // the instruction under test
		if p.Instrs[pc].Op != op || p.Instrs[pc].Dst != opDst {
			t.Fatalf("%s: pc %d holds %s", op, pc, &p.Instrs[pc])
		}
		words[pc].Lo |= 1 << 20 // the HasImm bit
		if _, err := fastsim.CompileWords(p, words); err == nil {
			t.Errorf("%s: CompileWords accepted the immediate form", op)
		}
	}
}
