package ir

import (
	"fmt"

	"lmi/internal/isa"
)

// Builder constructs IR functions with structured control flow. Its
// If/While helpers create the reconvergence (Join) points the backend
// turns into SSY targets for the SIMT divergence stack.
type Builder struct {
	// F is the function under construction.
	F *Func
	// cur is the block new instructions append to.
	cur *Block
}

// NewBuilder starts a function with an entry block.
func NewBuilder(name string) *Builder {
	f := NewFunc(name)
	b := &Builder{F: f}
	b.cur = f.NewBlock()
	return b
}

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.cur }

func (b *Builder) emit(in Instr) Value {
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in.Dst
}

func (b *Builder) newVal(t Type) Value { return b.F.NewValue(t) }

// Param declares the next kernel parameter and returns its value.
func (b *Builder) Param(t Type) Value {
	idx := len(b.F.Params)
	b.F.Params = append(b.F.Params, t)
	v := b.newVal(t)
	return b.emit(Instr{Op: OpParam, Dst: v, Index: idx})
}

// ConstI produces an integer constant of type t (I32 or I64).
func (b *Builder) ConstI(t Type, imm int64) Value {
	v := b.newVal(t)
	return b.emit(Instr{Op: OpConstI, Dst: v, Imm: imm})
}

// ConstF produces an f32 constant.
func (b *Builder) ConstF(imm float32) Value {
	v := b.newVal(F32)
	return b.emit(Instr{Op: OpConstF, Dst: v, FImm: imm})
}

// Special reads a special register as I32.
func (b *Builder) Special(sr isa.SReg) Value {
	v := b.newVal(I32)
	return b.emit(Instr{Op: OpSpecial, Dst: v, SReg: sr})
}

// TID returns threadIdx.x.
func (b *Builder) TID() Value { return b.Special(isa.SRTidX) }

// CTAID returns blockIdx.x.
func (b *Builder) CTAID() Value { return b.Special(isa.SRCtaidX) }

// NTID returns blockDim.x.
func (b *Builder) NTID() Value { return b.Special(isa.SRNtidX) }

// GlobalTID returns blockIdx.x*blockDim.x + threadIdx.x.
func (b *Builder) GlobalTID() Value {
	return b.Add(b.Mul(b.CTAID(), b.NTID()), b.TID())
}

// TIDY returns threadIdx.y.
func (b *Builder) TIDY() Value { return b.Special(isa.SRTidY) }

// CTAIDY returns blockIdx.y.
func (b *Builder) CTAIDY() Value { return b.Special(isa.SRCtaidY) }

// NTIDY returns blockDim.y.
func (b *Builder) NTIDY() Value { return b.Special(isa.SRNtidY) }

// GlobalXY returns the global 2-D coordinates
// (blockIdx.x*blockDim.x+threadIdx.x, blockIdx.y*blockDim.y+threadIdx.y).
func (b *Builder) GlobalXY() (x, y Value) {
	x = b.Add(b.Mul(b.CTAID(), b.NTID()), b.TID())
	y = b.Add(b.Mul(b.CTAIDY(), b.NTIDY()), b.TIDY())
	return x, y
}

func (b *Builder) binary(op Op, x, y Value, t Type) Value {
	v := b.newVal(t)
	return b.emit(Instr{Op: op, Dst: v, Args: []Value{x, y}})
}

// Add returns x+y (integer).
func (b *Builder) Add(x, y Value) Value { return b.binary(OpAdd, x, y, b.F.TypeOf(x)) }

// Sub returns x-y (integer).
func (b *Builder) Sub(x, y Value) Value { return b.binary(OpSub, x, y, b.F.TypeOf(x)) }

// Mul returns x*y (integer).
func (b *Builder) Mul(x, y Value) Value { return b.binary(OpMul, x, y, b.F.TypeOf(x)) }

// Min returns min(x,y) (integer).
func (b *Builder) Min(x, y Value) Value { return b.binary(OpMin, x, y, b.F.TypeOf(x)) }

// Max returns max(x,y) (integer).
func (b *Builder) Max(x, y Value) Value { return b.binary(OpMax, x, y, b.F.TypeOf(x)) }

// Shl returns x<<y.
func (b *Builder) Shl(x, y Value) Value { return b.binary(OpShl, x, y, b.F.TypeOf(x)) }

// Shr returns x>>y (logical).
func (b *Builder) Shr(x, y Value) Value { return b.binary(OpShr, x, y, b.F.TypeOf(x)) }

// And returns x&y.
func (b *Builder) And(x, y Value) Value { return b.binary(OpAnd, x, y, b.F.TypeOf(x)) }

// Or returns x|y.
func (b *Builder) Or(x, y Value) Value { return b.binary(OpOr, x, y, b.F.TypeOf(x)) }

// Xor returns x^y.
func (b *Builder) Xor(x, y Value) Value { return b.binary(OpXor, x, y, b.F.TypeOf(x)) }

// FAdd returns x+y (f32).
func (b *Builder) FAdd(x, y Value) Value { return b.binary(OpFAdd, x, y, F32) }

// FSub returns x-y (f32).
func (b *Builder) FSub(x, y Value) Value { return b.binary(OpFSub, x, y, F32) }

// FMul returns x*y (f32).
func (b *Builder) FMul(x, y Value) Value { return b.binary(OpFMul, x, y, F32) }

// FFMA returns x*y+z (f32).
func (b *Builder) FFMA(x, y, z Value) Value {
	v := b.newVal(F32)
	return b.emit(Instr{Op: OpFFMA, Dst: v, Args: []Value{x, y, z}})
}

func (b *Builder) unaryF(op Op, x Value) Value {
	v := b.newVal(F32)
	return b.emit(Instr{Op: op, Dst: v, Args: []Value{x}})
}

// FRcp returns 1/x.
func (b *Builder) FRcp(x Value) Value { return b.unaryF(OpFRcp, x) }

// FSqrt returns sqrt(x).
func (b *Builder) FSqrt(x Value) Value { return b.unaryF(OpFSqrt, x) }

// FExp2 returns 2^x.
func (b *Builder) FExp2(x Value) Value { return b.unaryF(OpFExp2, x) }

// FLog2 returns log2(x).
func (b *Builder) FLog2(x Value) Value { return b.unaryF(OpFLog2, x) }

// FSin returns sin(x).
func (b *Builder) FSin(x Value) Value { return b.unaryF(OpFSin, x) }

// I2F converts an integer to f32.
func (b *Builder) I2F(x Value) Value {
	v := b.newVal(F32)
	return b.emit(Instr{Op: OpI2F, Dst: v, Args: []Value{x}})
}

// F2I converts an f32 to i32 (truncating).
func (b *Builder) F2I(x Value) Value {
	v := b.newVal(I32)
	return b.emit(Instr{Op: OpF2I, Dst: v, Args: []Value{x}})
}

// ICmp compares integers, producing a Bool.
func (b *Builder) ICmp(cmp isa.CmpOp, x, y Value) Value {
	v := b.newVal(Bool)
	return b.emit(Instr{Op: OpICmp, Dst: v, Cmp: cmp, Args: []Value{x, y}})
}

// FCmp compares floats, producing a Bool.
func (b *Builder) FCmp(cmp isa.CmpOp, x, y Value) Value {
	v := b.newVal(Bool)
	return b.emit(Instr{Op: OpFCmp, Dst: v, Cmp: cmp, Args: []Value{x, y}})
}

// Select returns cond ? x : y.
func (b *Builder) Select(cond, x, y Value) Value {
	v := b.newVal(b.F.TypeOf(x))
	return b.emit(Instr{Op: OpSelect, Dst: v, Args: []Value{cond, x, y}})
}

// Var declares a mutable virtual register initialised from init.
func (b *Builder) Var(init Value) Value {
	v := b.newVal(b.F.TypeOf(init))
	b.emit(Instr{Op: OpCopy, Dst: v, Args: []Value{init}})
	return v
}

// Assign overwrites a previously declared Var.
func (b *Builder) Assign(dst, src Value) {
	b.emit(Instr{Op: OpCopy, Dst: dst, Args: []Value{src}})
}

// GEP computes ptr + idx*scale + off. idx may be NoValue for a pure
// constant offset. This is the pointer-arithmetic instruction the LMI
// pass marks for OCU verification.
func (b *Builder) GEP(ptr, idx Value, scale uint64, off int64) Value {
	v := b.newVal(b.F.TypeOf(ptr))
	return b.emit(Instr{Op: OpGEP, Dst: v, Args: []Value{ptr, idx}, Scale: scale, Off: off})
}

// Load reads a t-typed value from ptr+off.
func (b *Builder) Load(t Type, ptr Value, off int64) Value {
	v := b.newVal(t)
	return b.emit(Instr{Op: OpLoad, Dst: v, Args: []Value{ptr}, Off: off})
}

// Store writes val to ptr+off.
func (b *Builder) Store(ptr, val Value, off int64) {
	b.emit(Instr{Op: OpStore, Dst: NoValue, Args: []Value{ptr, val}, Off: off})
}

// Alloca reserves a stack buffer and returns its local-space pointer.
func (b *Builder) Alloca(size uint64) Value {
	v := b.newVal(PtrLocal)
	return b.emit(Instr{Op: OpAlloca, Dst: v, Size: size})
}

// Shared declares a static shared-memory buffer and returns its pointer.
func (b *Builder) Shared(size uint64) Value {
	v := b.newVal(PtrShared)
	return b.emit(Instr{Op: OpShared, Dst: v, Size: size})
}

// Malloc calls the device heap allocator.
func (b *Builder) Malloc(size Value) Value {
	v := b.newVal(PtrGlobal)
	return b.emit(Instr{Op: OpMalloc, Dst: v, Args: []Value{size}})
}

// Free releases a device-heap buffer.
func (b *Builder) Free(ptr Value) {
	b.emit(Instr{Op: OpFree, Dst: NoValue, Args: []Value{ptr}})
}

// Invalidate nullifies a pointer's extent (scope exit, §VIII).
func (b *Builder) Invalidate(ptr Value) {
	b.emit(Instr{Op: OpInvalidate, Dst: NoValue, Args: []Value{ptr}})
}

// AtomicAdd atomically adds val to *(ptr+off), returning the old value.
func (b *Builder) AtomicAdd(ptr, val Value, off int64) Value {
	v := b.newVal(b.F.TypeOf(val))
	return b.emit(Instr{Op: OpAtomicAdd, Dst: v, Args: []Value{ptr, val}, Off: off})
}

// Barrier emits a block-wide barrier.
func (b *Builder) Barrier() {
	b.emit(Instr{Op: OpBarrier, Dst: NoValue})
}

// PtrToInt casts a pointer to i64 (rejected by the LMI compiler pass).
func (b *Builder) PtrToInt(ptr Value) Value {
	v := b.newVal(I64)
	return b.emit(Instr{Op: OpPtrToInt, Dst: v, Args: []Value{ptr}})
}

// IntToPtr casts an i64 to a pointer in space (rejected by the LMI
// compiler pass).
func (b *Builder) IntToPtr(x Value, space isa.Space) Value {
	v := b.newVal(Ptr(space))
	return b.emit(Instr{Op: OpIntToPtr, Dst: v, Args: []Value{x}})
}

// Ret terminates the kernel.
func (b *Builder) Ret() {
	b.emit(Instr{Op: OpRet, Dst: NoValue})
}

// If emits a structured conditional. thenFn and elseFn populate the two
// arms; elseFn may be nil. Control reconverges at the returned join
// block, which becomes the current block.
func (b *Builder) If(cond Value, thenFn, elseFn func()) {
	thenB := b.F.NewBlock()
	var elseB *Block
	if elseFn != nil {
		elseB = b.F.NewBlock()
	}
	join := b.F.NewBlock()
	elseID := join.ID
	if elseB != nil {
		elseID = elseB.ID
	}
	b.emit(Instr{Op: OpCondBr, Dst: NoValue, Args: []Value{cond},
		Then: thenB.ID, Else: elseID, Join: join.ID})
	b.cur = thenB
	thenFn()
	if b.cur.Terminator() == nil {
		b.emit(Instr{Op: OpBr, Dst: NoValue, Target: join.ID})
	}
	if elseB != nil {
		b.cur = elseB
		elseFn()
		if b.cur.Terminator() == nil {
			b.emit(Instr{Op: OpBr, Dst: NoValue, Target: join.ID})
		}
	}
	b.cur = join
}

// While emits a structured loop. condFn runs in the loop head and returns
// the continue condition; bodyFn populates the body. The loop reconverges
// at the exit block.
func (b *Builder) While(condFn func() Value, bodyFn func()) {
	head := b.F.NewBlock()
	b.emit(Instr{Op: OpBr, Dst: NoValue, Target: head.ID})
	b.cur = head
	cond := condFn()
	body := b.F.NewBlock()
	exit := b.F.NewBlock()
	b.emit(Instr{Op: OpCondBr, Dst: NoValue, Args: []Value{cond},
		Then: body.ID, Else: exit.ID, Join: exit.ID})
	b.cur = body
	bodyFn()
	if b.cur.Terminator() == nil {
		b.emit(Instr{Op: OpBr, Dst: NoValue, Target: head.ID})
	}
	b.cur = exit
}

// For emits the canonical counted loop for i in [0, n), calling bodyFn
// with the induction variable.
func (b *Builder) For(n Value, bodyFn func(i Value)) {
	i := b.Var(b.ConstI(b.F.TypeOf(n), 0))
	b.While(func() Value {
		return b.ICmp(isa.CmpLT, i, n)
	}, func() {
		bodyFn(i)
		b.Assign(i, b.Add(i, b.ConstI(b.F.TypeOf(n), 1)))
	})
}

// Finish validates structural completeness (every block terminated; Ret
// appended to the current block if missing) and returns the function.
func (b *Builder) Finish() (*Func, error) {
	if b.cur.Terminator() == nil {
		b.Ret()
	}
	for _, blk := range b.F.Blocks {
		if blk.Terminator() == nil {
			return nil, fmt.Errorf("ir: %s: block b%d not terminated", b.F.Name, blk.ID)
		}
	}
	return b.F, nil
}

// Finalize is Finish for static construction paths that cannot plumb an
// error: instead of panicking, a structural failure is recorded on the
// returned Func and reported by Verify (and therefore by compilation).
// The returned Func is never nil.
func (b *Builder) Finalize() *Func {
	f, err := b.Finish()
	if err != nil {
		b.F.buildErr = err
		return b.F
	}
	return f
}

// MustFinish is kept as an alias of Finalize for existing construction
// sites; despite the historical name it no longer panics — the deferred
// error surfaces at Verify/compile time.
func (b *Builder) MustFinish() *Func { return b.Finalize() }
