package ir

import (
	"fmt"
	"strings"

	"lmi/internal/isa"
)

// Op is an IR operation.
type Op uint8

// IR operations.
const (
	OpInvalid Op = iota

	// Value producers.
	OpConstI  // Dst = Imm (integer constant)
	OpConstF  // Dst = FImm (f32 constant)
	OpParam   // Dst = kernel parameter #Index
	OpSpecial // Dst = special register SReg (tid.x, ctaid.x, ...)

	// Integer arithmetic.
	OpAdd
	OpSub
	OpMul
	OpMin
	OpMax
	OpShl
	OpShr
	OpAnd
	OpOr
	OpXor

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFFMA // Dst = a*b + c
	OpFRcp
	OpFSqrt
	OpFExp2
	OpFLog2
	OpFSin

	// Conversions.
	OpI2F
	OpF2I

	// Comparisons (produce Bool).
	OpICmp // Cmp field
	OpFCmp

	// Select and copy.
	OpSelect // Dst = Args[0] ? Args[1] : Args[2]
	OpCopy   // Dst = Args[0]; a pointer copy is an OCU-verified move

	// Pointer arithmetic: Dst = Args[0] + Args[1]*Scale + Off.
	// Args[1] may be NoValue for constant-offset GEPs.
	OpGEP

	// Memory access; Off is a constant byte offset folded into the
	// instruction.
	OpLoad  // Dst = *(Args[0] + Off)
	OpStore // *(Args[0] + Off) = Args[1]

	// Allocation.
	OpAlloca // Dst = local-space pointer to a Size-byte stack buffer
	OpShared // Dst = shared-space pointer to a Size-byte static buffer
	OpMalloc // Dst = global-space pointer; Args[0] = byte size
	OpFree   // free(Args[0])

	// OpInvalidate nullifies a pointer's extent without freeing: the
	// compiler-inserted action at scope exit (§VIII).
	OpInvalidate

	// OpAtomicAdd: Dst = old value; *(Args[0]+Off) += Args[1].
	OpAtomicAdd

	// OpBarrier is a block-wide barrier.
	OpBarrier

	// Casts between pointers and integers. The LMI compiler pass rejects
	// programs containing these (§XII-B).
	OpPtrToInt
	OpIntToPtr

	// Terminators.
	OpBr     // jump to Target
	OpCondBr // Args[0] ? Then : Else, reconverging at Join
	OpRet

	numOps
)

var opNames = [...]string{
	OpInvalid: "invalid",
	OpConstI:  "consti", OpConstF: "constf", OpParam: "param", OpSpecial: "special",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpMin: "min", OpMax: "max",
	OpShl: "shl", OpShr: "shr", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFFMA: "ffma",
	OpFRcp: "frcp", OpFSqrt: "fsqrt", OpFExp2: "fexp2", OpFLog2: "flog2", OpFSin: "fsin",
	OpI2F: "i2f", OpF2I: "f2i", OpICmp: "icmp", OpFCmp: "fcmp",
	OpSelect: "select", OpCopy: "copy", OpGEP: "gep",
	OpLoad: "load", OpStore: "store",
	OpAlloca: "alloca", OpShared: "shared", OpMalloc: "malloc", OpFree: "free",
	OpInvalidate: "invalidate", OpAtomicAdd: "atomicadd", OpBarrier: "barrier",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

// String returns the op name.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsTerminator reports whether the op ends a block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// BlockID names a basic block within a function.
type BlockID int

// Instr is one IR instruction.
type Instr struct {
	Op   Op
	Dst  Value
	Args []Value

	// Imm is the integer constant for OpConstI.
	Imm int64
	// FImm is the float constant for OpConstF.
	FImm float32
	// Cmp is the comparator for OpICmp/OpFCmp.
	Cmp isa.CmpOp
	// SReg is the special register for OpSpecial.
	SReg isa.SReg
	// Index is the parameter index for OpParam.
	Index int
	// Size is the buffer size for OpAlloca/OpShared.
	Size uint64
	// Scale is the index multiplier for OpGEP.
	Scale uint64
	// Off is the constant byte offset for OpGEP/OpLoad/OpStore/OpAtomicAdd.
	Off int64
	// Target is the destination block for OpBr.
	Target BlockID
	// Then, Else, Join are the destinations and reconvergence point for
	// OpCondBr.
	Then, Else, Join BlockID
}

// Block is a basic block: a sequence of instructions ending in one
// terminator.
type Block struct {
	ID     BlockID
	Instrs []Instr
}

// Terminator returns the block's final instruction, or nil if the block
// is empty or unterminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := &b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Func is one kernel function.
type Func struct {
	Name   string
	Params []Type
	Blocks []*Block

	// valTypes[v] is the type of virtual register v.
	valTypes []Type

	// buildErr holds a construction failure deferred by Builder.Finalize;
	// Verify (and therefore compilation) reports it instead of inspecting
	// the half-built function.
	buildErr error
}

// NewFunc creates an empty function.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewValue allocates a virtual register of the given type.
func (f *Func) NewValue(t Type) Value {
	f.valTypes = append(f.valTypes, t)
	return Value(len(f.valTypes) - 1)
}

// TypeOf returns the type of a value.
func (f *Func) TypeOf(v Value) Type {
	if v < 0 || int(v) >= len(f.valTypes) {
		return Void
	}
	return f.valTypes[v]
}

// NumValues returns the number of virtual registers.
func (f *Func) NumValues() int { return len(f.valTypes) }

// NewBlock appends an empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: BlockID(len(f.Blocks))}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// String renders the function for debugging.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%%p%d %s", i, p)
	}
	sb.WriteString(") {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", blk.ID)
		for i := range blk.Instrs {
			fmt.Fprintf(&sb, "  %s\n", f.instrString(&blk.Instrs[i]))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func (f *Func) instrString(in *Instr) string {
	var sb strings.Builder
	if in.Dst != NoValue {
		fmt.Fprintf(&sb, "%%v%d:%s = ", in.Dst, f.TypeOf(in.Dst))
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case OpConstI:
		fmt.Fprintf(&sb, " %d", in.Imm)
	case OpConstF:
		fmt.Fprintf(&sb, " %g", in.FImm)
	case OpParam:
		fmt.Fprintf(&sb, " #%d", in.Index)
	case OpSpecial:
		fmt.Fprintf(&sb, " %s", in.SReg)
	case OpICmp, OpFCmp:
		fmt.Fprintf(&sb, ".%s", in.Cmp)
	case OpAlloca, OpShared:
		fmt.Fprintf(&sb, " %d", in.Size)
	case OpGEP:
		fmt.Fprintf(&sb, "[scale=%d off=%d]", in.Scale, in.Off)
	case OpLoad, OpStore, OpAtomicAdd:
		if in.Off != 0 {
			fmt.Fprintf(&sb, "[off=%d]", in.Off)
		}
	case OpBr:
		fmt.Fprintf(&sb, " b%d", in.Target)
	case OpCondBr:
		fmt.Fprintf(&sb, " b%d b%d join=b%d", in.Then, in.Else, in.Join)
	}
	for _, a := range in.Args {
		if a == NoValue {
			sb.WriteString(" _")
		} else {
			fmt.Fprintf(&sb, " %%v%d", a)
		}
	}
	return sb.String()
}
