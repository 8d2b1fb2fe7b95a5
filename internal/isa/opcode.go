// Package isa defines the SASS-like GPU instruction set the LMI
// reproduction compiles to and simulates.
//
// The ISA mirrors the subset of NVIDIA SASS the paper discusses: integer
// ALU instructions (the ones the OCU watches), single-precision float
// instructions, per-region load/store instructions (LDG/STG for global,
// LDS/STS for shared, LDL/STL for local, LDC for constant), SIMT control
// flow (BRA/SSY/SYNC), block barriers, special-register reads, and
// device-runtime heap intrinsics (MALLOC/FREE).
//
// Every instruction encodes into a 128-bit microcode word ([Word]) whose
// layout reproduces the property LMI exploits (paper §VI-B, Fig. 9): a
// 14-bit reserved field sits between the control information and the
// instruction encoding, and LMI repurposes two of those bits — bit 28, the
// Activation (A) hint marking pointer-handling instructions, and bit 27,
// the Selection (S) hint naming the source operand that carries the
// pointer.
package isa

import "fmt"

// Opcode identifies an instruction.
type Opcode uint8

// Instruction opcodes. Mnemonics follow SASS where a SASS equivalent
// exists.
const (
	NOP Opcode = iota

	// Integer ALU (OCU-checked when the A hint bit is set).
	IADD  // Rd = Ra + (Rb | imm)
	IADD3 // Rd = Ra + Rb + (Rc | imm)
	IMUL  // Rd = Ra * (Rb | imm)
	IMAD  // Rd = Ra * Rb + (Rc | imm)
	IMNMX // Rd = max(Ra, Rb|imm) if Aux bit 0 is set, else min
	SHL   // Rd = Ra << (Rb | imm)
	SHR   // Rd = Ra >> (Rb | imm) (logical)
	AND   // Rd = Ra & (Rb | imm)
	OR    // Rd = Ra | (Rb | imm)
	XOR   // Rd = Ra ^ (Rb | imm)
	MOV   // Rd = (Ra | imm)
	SETP  // Pd = Ra <cmp> (Rb | imm); cmp in Aux
	SEL   // Rd = Pg ? Ra : (Rb | imm)  (selector predicate in Aux low 3 bits)

	// Floating point (32-bit values in register low words).
	FADD  // Rd = Ra +. (Rb | imm-as-float-bits)
	FMUL  // Rd = Ra *. (Rb | imm)
	FFMA  // Rd = Ra *. Rb +. (Rc | imm)
	FSETP // Pd = Ra <cmp>. (Rb | imm)
	MUFU  // Rd = fn(Ra); fn in Aux
	F2I   // Rd = int(Ra)
	I2F   // Rd = float(Ra)

	// Memory. Address operand is Src0 (+ imm offset); store data is Src1.
	// Access size (bytes, power of two) is encoded in Aux as log2(size).
	LDG   // global load
	STG   // global store
	LDS   // shared load
	STS   // shared store
	LDL   // local load
	STL   // local store
	LDC   // constant load: Rd = c[0][Ra + imm]
	ATOMG // global atomic add: Rd = old; [Ra+imm] += Rb
	ATOMS // shared atomic add

	// Control flow.
	BRA  // branch to Target (guarded by Pg; divergence handled by SIMT stack)
	SSY  // push reconvergence point Target
	SYNC // reconverge at the SSY-pushed point
	BAR  // block-wide barrier
	EXIT // thread exit
	S2R  // Rd = special register (which in Aux)

	// Device runtime intrinsics (per-thread heap, §V-B).
	MALLOC // Rd = device malloc(Ra)
	FREE   // device free(Ra)

	// TRAP raises a software-detected safety fault (used by SW mechanisms
	// such as Baggy Bounds instrumentation); the fault code is imm.
	TRAP

	numOpcodes
)

var opcodeNames = [...]string{
	NOP: "NOP", IADD: "IADD", IADD3: "IADD3", IMUL: "IMUL", IMAD: "IMAD",
	IMNMX: "IMNMX", SHL: "SHL", SHR: "SHR", AND: "AND", OR: "OR", XOR: "XOR",
	MOV: "MOV", SETP: "SETP", SEL: "SEL",
	FADD: "FADD", FMUL: "FMUL", FFMA: "FFMA", FSETP: "FSETP", MUFU: "MUFU",
	F2I: "F2I", I2F: "I2F",
	LDG: "LDG", STG: "STG", LDS: "LDS", STS: "STS", LDL: "LDL", STL: "STL",
	LDC: "LDC", ATOMG: "ATOMG", ATOMS: "ATOMS",
	BRA: "BRA", SSY: "SSY", SYNC: "SYNC", BAR: "BAR", EXIT: "EXIT", S2R: "S2R",
	MALLOC: "MALLOC", FREE: "FREE", TRAP: "TRAP",
}

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o < numOpcodes }

// IsInt reports whether the opcode executes on the integer ALU — the only
// functional unit carrying an OCU (paper §VII: "OCUs are only added to
// integer ALUs, as FPUs are not used for pointer calculations").
func (o Opcode) IsInt() bool {
	switch o {
	case IADD, IADD3, IMUL, IMAD, IMNMX, SHL, SHR, AND, OR, XOR, MOV, SETP, SEL:
		return true
	}
	return false
}

// IsFloat reports whether the opcode executes on the FP unit.
func (o Opcode) IsFloat() bool {
	switch o {
	case FADD, FMUL, FFMA, FSETP, MUFU, F2I, I2F:
		return true
	}
	return false
}

// IsMemory reports whether the opcode is handled by the LSU.
func (o Opcode) IsMemory() bool {
	switch o {
	case LDG, STG, LDS, STS, LDL, STL, LDC, ATOMG, ATOMS, MALLOC, FREE:
		return true
	}
	return false
}

// IsLoad reports whether the opcode reads memory into a register.
func (o Opcode) IsLoad() bool {
	switch o {
	case LDG, LDS, LDL, LDC, ATOMG, ATOMS:
		return true
	}
	return false
}

// IsStore reports whether the opcode writes memory.
func (o Opcode) IsStore() bool {
	switch o {
	case STG, STS, STL, ATOMG, ATOMS:
		return true
	}
	return false
}

// Space identifies the memory region an opcode addresses.
type Space uint8

// Memory spaces of the heterogeneous GPU memory system (paper §II-A).
const (
	SpaceNone Space = iota
	SpaceGlobal
	SpaceShared
	SpaceLocal
	SpaceConst
	// SpaceHeap distinguishes device-heap (in-kernel malloc) buffers in
	// allocator hooks. Heap buffers reside in global memory and are
	// accessed with LDG/STG, but the paper treats the heap as its own
	// protection region (§II-A, §V-B), and region-based mechanisms
	// protect it separately.
	SpaceHeap
)

// String returns the space name.
func (s Space) String() string {
	switch s {
	case SpaceNone:
		return "none"
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceLocal:
		return "local"
	case SpaceConst:
		return "const"
	case SpaceHeap:
		return "heap"
	default:
		return fmt.Sprintf("Space(%d)", uint8(s))
	}
}

// MemSpace returns the memory space an opcode addresses, or SpaceNone.
func (o Opcode) MemSpace() Space {
	switch o {
	case LDG, STG, ATOMG, MALLOC, FREE:
		return SpaceGlobal
	case LDS, STS, ATOMS:
		return SpaceShared
	case LDL, STL:
		return SpaceLocal
	case LDC:
		return SpaceConst
	default:
		return SpaceNone
	}
}

// CmpOp is the comparison operator carried in the Aux field of
// SETP/FSETP.
type CmpOp uint8

// Comparison operators.
const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

// String returns the comparator name.
func (c CmpOp) String() string {
	switch c {
	case CmpLT:
		return "LT"
	case CmpLE:
		return "LE"
	case CmpGT:
		return "GT"
	case CmpGE:
		return "GE"
	case CmpEQ:
		return "EQ"
	case CmpNE:
		return "NE"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(c))
	}
}

// MufuFn is the special-function selector carried in the Aux field of
// MUFU.
type MufuFn uint8

// Special functions.
const (
	MufuRCP MufuFn = iota
	MufuSQRT
	MufuEX2
	MufuLG2
	MufuSIN
)

// String returns the function name.
func (m MufuFn) String() string {
	switch m {
	case MufuRCP:
		return "RCP"
	case MufuSQRT:
		return "SQRT"
	case MufuEX2:
		return "EX2"
	case MufuLG2:
		return "LG2"
	case MufuSIN:
		return "SIN"
	default:
		return fmt.Sprintf("MufuFn(%d)", uint8(m))
	}
}

// SReg is a special register readable via S2R.
type SReg uint8

// Special registers (x/y grid dimensions; z is unused by the suite).
const (
	SRTidX SReg = iota
	SRCtaidX
	SRNtidX
	SRNctaidX
	SRLaneID
	SRWarpID
	SRSMID
	SRTidY
	SRCtaidY
	SRNtidY
	SRNctaidY
)

// String returns the special register name.
func (s SReg) String() string {
	switch s {
	case SRTidX:
		return "SR_TID.X"
	case SRCtaidX:
		return "SR_CTAID.X"
	case SRNtidX:
		return "SR_NTID.X"
	case SRNctaidX:
		return "SR_NCTAID.X"
	case SRLaneID:
		return "SR_LANEID"
	case SRWarpID:
		return "SR_WARPID"
	case SRSMID:
		return "SR_SMID"
	case SRTidY:
		return "SR_TID.Y"
	case SRCtaidY:
		return "SR_CTAID.Y"
	case SRNtidY:
		return "SR_NTID.Y"
	case SRNctaidY:
		return "SR_NCTAID.Y"
	default:
		return fmt.Sprintf("SReg(%d)", uint8(s))
	}
}
