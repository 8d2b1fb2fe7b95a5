package isa

import (
	"fmt"
	"strings"
)

// Reg is a general-purpose register number. The architectural register
// file holds 64-bit logical registers (a 64-bit pointer spans two 32-bit
// physical registers in real hardware, Fig. 6; the pairing is invisible at
// this level). RZ reads as zero and discards writes, as in SASS.
type Reg uint8

// RZ is the hardwired zero register.
const RZ Reg = 255

// String returns the register name.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// PredReg is a predicate register number. PT is hardwired true.
type PredReg uint8

// PT is the hardwired true predicate.
const PT PredReg = 7

// NumPredRegs is the number of allocatable predicate registers (P0..P6).
const NumPredRegs = 7

// String returns the predicate register name.
func (p PredReg) String() string {
	if p == PT {
		return "PT"
	}
	return fmt.Sprintf("P%d", uint8(p))
}

// Hint carries LMI's microcode hint bits (paper §VI-B, Fig. 9) plus the
// elide bit carved from the adjacent reserved space.
type Hint struct {
	// A (Activation, microcode bit 28) marks the instruction as
	// pointer-handling: the OCU must verify its result.
	A bool
	// S (Selection, microcode bit 27) names the source operand holding
	// the pointer: false selects Src[0], true selects Src[1].
	S bool
	// E (Elide, microcode bit 29) marks a memory access whose address
	// the compiler has statically proven in-bounds: the LSU skips the
	// extent check. Only legal on LDG/STG/LDL/STL; soundness is
	// re-derived independently by the lint elide audit.
	E bool
}

// PointerOperand returns the index of the source operand the S bit
// selects.
func (h Hint) PointerOperand() int {
	if h.S {
		return 1
	}
	return 0
}

// Instr is one decoded instruction.
type Instr struct {
	// Op is the opcode.
	Op Opcode
	// Dst is the destination register (RZ when unused). For SETP/FSETP
	// the low three bits of Dst name the destination predicate register.
	Dst Reg
	// Src holds up to three source registers (RZ when unused). For
	// stores, Src[0] is the address register and Src[1] the data
	// register.
	Src [3]Reg
	// Imm is the 32-bit immediate operand, used when HasImm is set; for
	// memory operations it is the signed address offset.
	Imm int32
	// HasImm selects the immediate form (the immediate replaces the last
	// register source the opcode would otherwise read).
	HasImm bool
	// Pred guards execution: the instruction executes in lanes where
	// Pred (negated if PredNeg) is true. PT means unconditional.
	Pred PredReg
	// PredNeg negates the guard predicate.
	PredNeg bool
	// Aux is the per-opcode 5-bit auxiliary field: CmpOp for SETP/FSETP,
	// MufuFn for MUFU, SReg for S2R, log2(access size) for LD/ST/ATOMG,
	// min/max selector for IMNMX, selector predicate for SEL.
	Aux uint8
	// Target is the branch/reconvergence target (instruction index) for
	// BRA/SSY, or the barrier ID for BAR.
	Target int32
	// Hint carries the LMI microcode hint bits.
	Hint Hint
	// Ctl is the 8-bit control information field (scheduler hints); the
	// simulator uses it for fixed stall cycles when nonzero.
	Ctl uint8
}

// AuxSignExt is the Aux-field flag on load opcodes requesting sign
// extension of a sub-8-byte loaded value (32-bit integer loads).
const AuxSignExt = 0x8

// AuxW64 is the Aux-field flag on integer ALU opcodes selecting a 64-bit
// operation. Without it, integer ops compute in 32 bits (the SASS
// default) and the result is sign-extended into the 64-bit logical
// register; pointer arithmetic and address generation set it.
const AuxW64 = 0x10

// W64 reports whether an integer ALU instruction operates on 64 bits.
func (in *Instr) W64() bool { return in.Aux&AuxW64 != 0 }

// IsMax reports whether an IMNMX instruction selects the maximum: Aux
// bit 0 set is max, clear is min. The AuxW64 flag shares the field, so
// a 64-bit max carries Aux 0x11, not 1.
func (in *Instr) IsMax() bool { return in.Aux&1 != 0 }

// ImmSrcIndex returns the source-operand index the immediate form
// replaces for this opcode, or -1 when the opcode has no
// immediate-replaceable register operand: memory-op immediates are
// address offsets, not operand substitutes, and F2I and I2F always read
// their register. It is the operand-routing rule of both execution
// tiers and of every static pass.
func (o Opcode) ImmSrcIndex() int {
	switch o {
	case MOV:
		return 0
	case IADD, IMUL, IMNMX, SHL, SHR, AND, OR, XOR, SETP, SEL, FADD, FMUL, FSETP:
		return 1
	case IADD3, IMAD, FFMA:
		return 2
	}
	return -1
}

// NumSrcs is the number of source operands each opcode reads in its
// register form (before immediate substitution).
func (o Opcode) NumSrcs() int {
	switch o {
	case MOV, I2F, F2I, MUFU, LDG, LDS, LDL, LDC, MALLOC, FREE:
		return 1
	case IADD, IMUL, IMNMX, SHL, SHR, AND, OR, XOR, SETP, SEL,
		FADD, FMUL, FSETP, STG, STS, STL, ATOMG, ATOMS:
		return 2
	case IADD3, IMAD, FFMA:
		return 3
	}
	return 0
}

// SrcRegs appends the register sources the instruction actually reads
// (honouring the immediate form, which replaces one register operand)
// and returns the extended slice. RZ sources are included: RZ reads as
// zero but is still routed through the operand collectors.
func (in *Instr) SrcRegs(buf []Reg) []Reg {
	n := in.Op.NumSrcs()
	imm := -1
	if in.HasImm {
		imm = in.Op.ImmSrcIndex()
	}
	for i := 0; i < n; i++ {
		if i == imm {
			continue
		}
		buf = append(buf, in.Src[i])
	}
	return buf
}

// WritesDst reports whether the instruction writes its Dst register (as
// opposed to using the field for a predicate destination, or not
// producing a register result at all).
func (in *Instr) WritesDst() bool {
	switch in.Op {
	case SETP, FSETP, BRA, SSY, SYNC, BAR, EXIT, NOP, TRAP, FREE,
		STG, STS, STL:
		return false
	}
	return true
}

// AccSize returns the access size in bytes for memory opcodes.
func (in *Instr) AccSize() uint64 { return uint64(1) << (in.Aux & 0x7) }

// SignExtend reports whether a load sign-extends its value into the
// 64-bit register.
func (in *Instr) SignExtend() bool { return in.Aux&AuxSignExt != 0 }

// String disassembles the instruction.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Pred != PT || in.PredNeg {
		neg := ""
		if in.PredNeg {
			neg = "!"
		}
		fmt.Fprintf(&b, "@%s%s ", neg, in.Pred)
	}
	b.WriteString(in.Op.String())
	switch {
	case in.Op == SETP || in.Op == FSETP:
		fmt.Fprintf(&b, ".%s %s, %s, %s", CmpOp(in.Aux), PredReg(in.Dst&7), in.Src[0], in.lastOperand(1))
	case in.Op == MUFU:
		fmt.Fprintf(&b, ".%s %s, %s", MufuFn(in.Aux), in.Dst, in.Src[0])
	case in.Op == S2R:
		fmt.Fprintf(&b, " %s, %s", in.Dst, SReg(in.Aux))
	case in.Op.IsLoad() && in.Op != ATOMG:
		fmt.Fprintf(&b, ".%d %s, [%s%+d]", in.AccSize()*8, in.Dst, in.Src[0], in.Imm)
	case in.Op == ATOMG || in.Op == ATOMS:
		fmt.Fprintf(&b, ".ADD.%d %s, [%s%+d], %s", in.AccSize()*8, in.Dst, in.Src[0], in.Imm, in.Src[1])
	case in.Op.IsStore():
		fmt.Fprintf(&b, ".%d [%s%+d], %s", in.AccSize()*8, in.Src[0], in.Imm, in.Src[1])
	case in.Op == BRA || in.Op == SSY:
		fmt.Fprintf(&b, " %d", in.Target)
	case in.Op == BAR:
		fmt.Fprintf(&b, ".SYNC %d", in.Target)
	case in.Op == EXIT || in.Op == SYNC || in.Op == NOP:
		// no operands
	case in.Op == FREE:
		fmt.Fprintf(&b, " %s", in.Src[0])
	case in.Op == MALLOC:
		fmt.Fprintf(&b, " %s, %s", in.Dst, in.Src[0])
	case in.Op == TRAP:
		fmt.Fprintf(&b, " %d", in.Imm)
	case in.Op == MOV || in.Op == I2F || in.Op == F2I:
		fmt.Fprintf(&b, " %s, %s", in.Dst, in.lastOperand(0))
	case in.Op == IADD3 || in.Op == IMAD || in.Op == FFMA:
		fmt.Fprintf(&b, " %s, %s, %s, %s", in.Dst, in.Src[0], in.Src[1], in.lastOperand(2))
	default:
		fmt.Fprintf(&b, " %s, %s, %s", in.Dst, in.Src[0], in.lastOperand(1))
	}
	if in.Hint.A {
		s := 0
		if in.Hint.S {
			s = 1
		}
		fmt.Fprintf(&b, "  ; [A S=%d]", s)
	}
	if in.Hint.E {
		b.WriteString("  ; [E]")
	}
	return b.String()
}

// lastOperand formats source operand i, honouring the immediate form.
func (in *Instr) lastOperand(i int) string {
	if in.HasImm && in.Op.ImmSrcIndex() == i {
		return fmt.Sprintf("%#x", uint32(in.Imm))
	}
	return in.Src[i].String()
}

// Validate checks structural well-formedness of the instruction.
func (in *Instr) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Pred > PT {
		return fmt.Errorf("isa: %s: guard predicate %d out of range", in.Op, in.Pred)
	}
	if in.Aux >= 32 {
		return fmt.Errorf("isa: %s: aux %d exceeds 5-bit field", in.Op, in.Aux)
	}
	// The immediate form replaces the operand ImmSrcIndex names; on an
	// opcode without one, no tier would read the immediate.
	if in.HasImm && in.Op.ImmSrcIndex() < 0 {
		return fmt.Errorf("isa: %s: immediate form on an opcode without an immediate operand", in.Op)
	}
	switch in.Op {
	case BRA, SSY:
		if in.Target < 0 {
			return fmt.Errorf("isa: %s: negative target %d", in.Op, in.Target)
		}
	case SETP, FSETP:
		if PredReg(in.Dst&7) == PT {
			return fmt.Errorf("isa: %s: writes the hardwired predicate PT", in.Op)
		}
	case LDG, STG, LDS, STS, LDL, STL, LDC, ATOMG, ATOMS:
		sz := in.AccSize()
		if sz != 1 && sz != 2 && sz != 4 && sz != 8 {
			return fmt.Errorf("isa: %s: unsupported access size %d", in.Op, sz)
		}
		// Both execution tiers add atomics in 32 bits; any other width
		// would store a truncated sum.
		if (in.Op == ATOMG || in.Op == ATOMS) && sz != 4 {
			return fmt.Errorf("isa: %s: atomic access size %d, only 4 is supported", in.Op, sz)
		}
		// Both tiers return an atomic's old value zero-extended; no tier
		// reads the sign-extension flag there.
		if (in.Op == ATOMG || in.Op == ATOMS) && in.SignExtend() {
			return fmt.Errorf("isa: %s: sign-extension flag on an atomic", in.Op)
		}
	}
	if in.Hint.A && !in.Op.IsInt() {
		return fmt.Errorf("isa: %s: activation hint on non-integer instruction", in.Op)
	}
	if in.Hint.E {
		switch in.Op {
		case LDG, STG, LDL, STL, ATOMG:
		default:
			return fmt.Errorf("isa: %s: elide hint on non-checkable memory instruction", in.Op)
		}
	}
	return nil
}

// Program is a compiled kernel: a linear instruction sequence plus the
// launch-time metadata the driver supplies.
type Program struct {
	// Name identifies the kernel.
	Name string
	// Instrs is the instruction sequence; Target fields index into it.
	Instrs []Instr
	// FrameSize is the per-thread local-stack frame in bytes. Under LMI
	// compilation each stack buffer inside the frame is rounded to its
	// 2^n size class (paper §V-B "Stack Memory").
	FrameSize uint32
	// SharedSize is the static shared-memory requirement per block in
	// bytes.
	SharedSize uint32
	// NumRegs is the highest register number used plus one (occupancy
	// input).
	NumRegs int
	// NumParams is the number of kernel parameters; parameter i is read
	// from constant bank word ParamBase+i.
	NumParams int
	// ParamPtrs marks which parameters are pointers (tagged under LMI
	// compilation); static analyses use it to classify LDC parameter
	// loads. nil means unknown (hand-built programs).
	ParamPtrs []bool
	// StackPtrConst is the constant-bank word index holding the
	// per-thread stack top (SASS convention c[0x0][0x28], paper Fig. 7).
	StackPtrConst int
	// ParamBase is the first constant-bank word index of the kernel
	// parameters.
	ParamBase int
	// StackBuffers records the byte offsets and rounded sizes of the
	// stack buffers inside the frame (used by mechanisms that tag stack
	// pointers).
	StackBuffers []StackBuffer
}

// StackBuffer describes one compiler-allocated stack buffer.
type StackBuffer struct {
	// Offset is the byte offset of the buffer base within the frame
	// (from the post-decrement stack pointer).
	Offset uint32
	// Size is the reserved (possibly 2^n-rounded) size in bytes.
	Size uint32
	// Extent is the LMI size class, 0 when compiled without LMI.
	Extent uint8
}

// Validate checks the program: a register count that is not negative,
// every instruction well-formed, every branch target in range, every
// named register inside the per-lane register file (RegFileWidth).
func (p *Program) Validate() error {
	if p.NumRegs < 0 {
		return fmt.Errorf("isa: %s: negative register count %d", p.Name, p.NumRegs)
	}
	nregs := p.RegFileWidth()
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: %s[%d]: %w", p.Name, i, err)
		}
		for _, r := range in.Src {
			if r != RZ && int(r) >= nregs {
				return fmt.Errorf("isa: %s[%d]: source %s outside the %d-register file", p.Name, i, r, nregs)
			}
		}
		// SETP/FSETP's Dst names a predicate, not a register.
		if in.Op != SETP && in.Op != FSETP && in.Dst != RZ && int(in.Dst) >= nregs {
			return fmt.Errorf("isa: %s[%d]: destination %s outside the %d-register file", p.Name, i, in.Dst, nregs)
		}
		if in.Op == BRA || in.Op == SSY {
			if int(in.Target) > len(p.Instrs) {
				return fmt.Errorf("isa: %s[%d]: target %d out of range", p.Name, i, in.Target)
			}
		}
	}
	if len(p.Instrs) == 0 {
		return fmt.Errorf("isa: %s: empty program", p.Name)
	}
	// Control never falls off the end: the final instruction must be a
	// terminator (blocks may be laid out in any order, so a trailing BRA
	// is legal), and the program must contain at least one EXIT.
	last := p.Instrs[len(p.Instrs)-1].Op
	if last != EXIT && last != BRA {
		return fmt.Errorf("isa: %s: program must end with EXIT or BRA, ends with %s", p.Name, last)
	}
	hasExit := false
	for i := range p.Instrs {
		if p.Instrs[i].Op == EXIT {
			hasExit = true
			break
		}
	}
	if !hasExit {
		return fmt.Errorf("isa: %s: program has no EXIT", p.Name)
	}
	return nil
}

// RegFileWidth is the per-lane register-file width both simulators
// allocate: NumRegs, but at least 8.
func (p *Program) RegFileWidth() int {
	return max(p.NumRegs, 8)
}

// Disassemble renders the whole program with instruction indices.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// kernel %s: frame=%dB shared=%dB regs=%d\n",
		p.Name, p.FrameSize, p.SharedSize, p.NumRegs)
	for i := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", i, p.Instrs[i].String())
	}
	return b.String()
}

// CountHinted returns the number of instructions carrying the A hint —
// the OCU-checked pointer operations.
func (p *Program) CountHinted() int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Hint.A {
			n++
		}
	}
	return n
}

// CountElided returns the number of memory instructions carrying the E
// hint — the accesses whose extent check the compiler discharged
// statically.
func (p *Program) CountElided() int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Hint.E {
			n++
		}
	}
	return n
}
