package ir

import (
	"fmt"
	"math"

	"lmi/internal/alloc"
	"lmi/internal/isa"
	"lmi/internal/mem"
)

// Interp is a reference interpreter for IR kernels. It executes the
// functional semantics only — no timing, no safety mechanism — and exists
// for differential testing: the cycle-level simulator must compute the
// same global-memory contents for the same launch.
//
// Threads within a block execute in lockstep segments separated by
// barriers; blocks execute sequentially. Shared memory is per block,
// local memory per thread. Device malloc is serviced by a stock-policy
// device heap.
type Interp struct {
	// F is the kernel.
	F *Func
	// Global is the global-memory image (inputs pre-written by the
	// caller, outputs read back after Run).
	Global *mem.AddrSpace
	// Params are the kernel parameter words.
	Params []uint64
	// GridDim and BlockDim are the total launch dimensions
	// (gridX*gridY and blockX*blockY).
	GridDim, BlockDim int
	// GridDimX and BlockDimX set the x extents for 2-D launches; zero
	// means fully 1-D (x extent = total).
	GridDimX, BlockDimX int

	heap *alloc.DeviceHeap
}

// NewInterp prepares an interpreter for one launch.
func NewInterp(f *Func, global *mem.AddrSpace, params []uint64, gridDim, blockDim int) *Interp {
	return &Interp{
		F:        f,
		Global:   global,
		Params:   params,
		GridDim:  gridDim,
		BlockDim: blockDim,
		heap:     alloc.NewDefaultDeviceHeap(alloc.PolicyBase),
	}
}

// threadState is one thread's execution context.
type threadState struct {
	vals    []uint64
	blk     BlockID
	idx     int
	done    bool
	atBar   bool
	local   *mem.AddrSpace
	tid     int
	ctaid   int
	frameSP uint64
}

// Run executes the launch. It returns an error on malformed programs or
// runtime failures (heap exhaustion, barrier divergence).
func (ip *Interp) Run() error {
	if err := Verify(ip.F); err != nil {
		return err
	}
	// Pre-compute the stack-frame layout (base policy) for allocas.
	var allocaSizes []uint64
	var allocaVals []Value
	sharedOffsets := map[Value]uint64{}
	var sharedTop uint64
	for _, in := range ip.F.Entry().Instrs {
		switch in.Op {
		case OpAlloca:
			allocaSizes = append(allocaSizes, in.Size)
			allocaVals = append(allocaVals, in.Dst)
		case OpShared:
			sharedOffsets[in.Dst] = sharedTop
			sharedTop += (in.Size + 15) &^ 15
		}
	}
	frame, err := alloc.LayoutFrame(allocaSizes, alloc.PolicyBase)
	if err != nil {
		return fmt.Errorf("ir: interp %s: %w", ip.F.Name, err)
	}

	for cta := 0; cta < ip.GridDim; cta++ {
		shared := mem.NewAddrSpace()
		threads := make([]*threadState, ip.BlockDim)
		for t := range threads {
			threads[t] = &threadState{
				vals:    make([]uint64, ip.F.NumValues()),
				local:   mem.NewAddrSpace(),
				tid:     t,
				ctaid:   cta,
				frameSP: alloc.StackTop - frame.FrameSize,
			}
		}
		_ = allocaVals
		for {
			progress := false
			alive := 0
			for _, ts := range threads {
				if ts.done {
					continue
				}
				alive++
				if ts.atBar {
					continue
				}
				if err := ip.runUntilBarrier(ts, shared, frame, allocaVals, sharedOffsets); err != nil {
					return err
				}
				progress = true
			}
			if alive == 0 {
				break
			}
			if !progress {
				// All alive threads are parked at a barrier: release them.
				released := 0
				for _, ts := range threads {
					if !ts.done && ts.atBar {
						ts.atBar = false
						released++
					}
				}
				if released == 0 {
					return fmt.Errorf("ir: interp %s: deadlock", ip.F.Name)
				}
			}
		}
	}
	return nil
}

// runUntilBarrier executes one thread until it parks at a barrier or
// finishes.
func (ip *Interp) runUntilBarrier(ts *threadState, shared *mem.AddrSpace,
	frame alloc.FrameLayout, allocaVals []Value, sharedOffsets map[Value]uint64) error {
	f := ip.F
	steps := 0
	const maxSteps = 50_000_000
	for {
		steps++
		if steps > maxSteps {
			return fmt.Errorf("ir: interp %s: step limit exceeded (infinite loop?)", f.Name)
		}
		blk := f.Blocks[ts.blk]
		if ts.idx >= len(blk.Instrs) {
			return fmt.Errorf("ir: interp %s: fell off b%d", f.Name, ts.blk)
		}
		in := &blk.Instrs[ts.idx]
		switch in.Op {
		case OpRet:
			ts.done = true
			return nil
		case OpBarrier:
			ts.atBar = true
			ts.idx++
			return nil
		case OpBr:
			ts.blk, ts.idx = in.Target, 0
			continue
		case OpCondBr:
			if ts.vals[in.Args[0]] != 0 {
				ts.blk, ts.idx = in.Then, 0
			} else {
				ts.blk, ts.idx = in.Else, 0
			}
			continue
		}
		if err := ip.exec(ts, in, shared, frame, allocaVals, sharedOffsets); err != nil {
			return err
		}
		ts.idx++
	}
}

func i32(v uint64) int32      { return int32(uint32(v)) }
func f32Of(v uint64) float32  { return math.Float32frombits(uint32(v)) }
func bitsOf(f float32) uint64 { return uint64(math.Float32bits(f)) }

func (ip *Interp) exec(ts *threadState, in *Instr, shared *mem.AddrSpace,
	frame alloc.FrameLayout, allocaVals []Value, sharedOffsets map[Value]uint64) error {
	f := ip.F
	arg := func(i int) uint64 { return ts.vals[in.Args[i]] }
	set := func(v uint64) { ts.vals[in.Dst] = v }

	intBin := func(fn32 func(a, b int32) int32, fn64 func(a, b int64) int64) {
		if f.TypeOf(in.Dst).Kind == KindI32 {
			set(uint64(uint32(fn32(i32(arg(0)), i32(arg(1))))))
		} else {
			set(uint64(fn64(int64(arg(0)), int64(arg(1)))))
		}
	}

	switch in.Op {
	case OpConstI:
		if f.TypeOf(in.Dst).Kind == KindI32 {
			set(uint64(uint32(in.Imm)))
		} else {
			set(uint64(in.Imm))
		}
	case OpConstF:
		set(bitsOf(in.FImm))
	case OpParam:
		if in.Index < len(ip.Params) {
			set(ip.Params[in.Index])
		} else {
			set(0)
		}
	case OpSpecial:
		bdimX, gridX := ip.BlockDimX, ip.GridDimX
		if bdimX <= 0 {
			bdimX = ip.BlockDim
		}
		if gridX <= 0 {
			gridX = ip.GridDim
		}
		switch in.SReg {
		case isa.SRTidX:
			set(uint64(ts.tid % bdimX))
		case isa.SRTidY:
			set(uint64(ts.tid / bdimX))
		case isa.SRCtaidX:
			set(uint64(ts.ctaid % gridX))
		case isa.SRCtaidY:
			set(uint64(ts.ctaid / gridX))
		case isa.SRNtidX:
			set(uint64(bdimX))
		case isa.SRNtidY:
			set(uint64(ip.BlockDim / bdimX))
		case isa.SRNctaidX:
			set(uint64(gridX))
		case isa.SRNctaidY:
			set(uint64(ip.GridDim / gridX))
		case isa.SRLaneID:
			set(uint64(ts.tid % 32))
		case isa.SRWarpID:
			set(uint64(ts.tid / 32))
		default:
			set(0)
		}
	case OpAdd:
		intBin(func(a, b int32) int32 { return a + b }, func(a, b int64) int64 { return a + b })
	case OpSub:
		intBin(func(a, b int32) int32 { return a - b }, func(a, b int64) int64 { return a - b })
	case OpMul:
		intBin(func(a, b int32) int32 { return a * b }, func(a, b int64) int64 { return a * b })
	case OpMin:
		intBin(func(a, b int32) int32 {
			if a < b {
				return a
			}
			return b
		}, func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		})
	case OpMax:
		intBin(func(a, b int32) int32 {
			if a > b {
				return a
			}
			return b
		}, func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
	case OpShl:
		intBin(func(a, b int32) int32 { return a << (uint32(b) & 31) },
			func(a, b int64) int64 { return a << (uint64(b) & 63) })
	case OpShr:
		intBin(func(a, b int32) int32 { return int32(uint32(a) >> (uint32(b) & 31)) },
			func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) })
	case OpAnd:
		intBin(func(a, b int32) int32 { return a & b }, func(a, b int64) int64 { return a & b })
	case OpOr:
		intBin(func(a, b int32) int32 { return a | b }, func(a, b int64) int64 { return a | b })
	case OpXor:
		intBin(func(a, b int32) int32 { return a ^ b }, func(a, b int64) int64 { return a ^ b })
	case OpFAdd:
		set(bitsOf(f32Of(arg(0)) + f32Of(arg(1))))
	case OpFSub:
		set(bitsOf(f32Of(arg(0)) - f32Of(arg(1))))
	case OpFMul:
		set(bitsOf(f32Of(arg(0)) * f32Of(arg(1))))
	case OpFFMA:
		set(bitsOf(f32Of(arg(0))*f32Of(arg(1)) + f32Of(arg(2))))
	case OpFRcp:
		set(bitsOf(1 / f32Of(arg(0))))
	case OpFSqrt:
		set(bitsOf(float32(math.Sqrt(float64(f32Of(arg(0)))))))
	case OpFExp2:
		set(bitsOf(float32(math.Exp2(float64(f32Of(arg(0)))))))
	case OpFLog2:
		set(bitsOf(float32(math.Log2(float64(f32Of(arg(0)))))))
	case OpFSin:
		set(bitsOf(float32(math.Sin(float64(f32Of(arg(0)))))))
	case OpI2F:
		if f.TypeOf(in.Args[0]).Kind == KindI32 {
			set(bitsOf(float32(i32(arg(0)))))
		} else {
			set(bitsOf(float32(int64(arg(0)))))
		}
	case OpF2I:
		// Truncation toward zero. Go leaves the conversion of NaN and of
		// values outside the int32 range to the host; pin them to
		// math.MinInt32, as x86's cvttss2si produces.
		x, v := float64(f32Of(arg(0))), int32(math.MinInt32)
		if math.Abs(x) < 1<<31 {
			v = int32(x)
		}
		set(uint64(uint32(v)))
	case OpICmp:
		var a, b int64
		if f.TypeOf(in.Args[0]).Kind == KindI32 {
			a, b = int64(i32(arg(0))), int64(i32(arg(1)))
		} else {
			a, b = int64(arg(0)), int64(arg(1))
		}
		set(boolBit(cmpInt(in.Cmp, a, b)))
	case OpFCmp:
		set(boolBit(cmpFloat(in.Cmp, f32Of(arg(0)), f32Of(arg(1)))))
	case OpSelect:
		if arg(0) != 0 {
			set(arg(1))
		} else {
			set(arg(2))
		}
	case OpCopy:
		set(arg(0))
	case OpGEP:
		addr := arg(0)
		if in.Args[1] != NoValue {
			idx := int64(arg(1))
			if f.TypeOf(in.Args[1]).Kind == KindI32 {
				idx = int64(i32(arg(1)))
			}
			addr = uint64(int64(addr) + idx*int64(in.Scale))
		}
		set(uint64(int64(addr) + in.Off))
	case OpLoad:
		space, m := ip.spaceOf(f.TypeOf(in.Args[0]).Space, ts, shared)
		_ = space
		addr := uint64(int64(arg(0)) + in.Off)
		set(m.Read(addr, int(f.TypeOf(in.Dst).Size())))
	case OpStore:
		_, m := ip.spaceOf(f.TypeOf(in.Args[0]).Space, ts, shared)
		addr := uint64(int64(arg(0)) + in.Off)
		m.Write(addr, arg(1), int(f.TypeOf(in.Args[1]).Size()))
	case OpAlloca:
		for i, v := range allocaVals {
			if v == in.Dst {
				set(ts.frameSP + frame.Buffers[i].Offset)
				return nil
			}
		}
		return fmt.Errorf("ir: interp %s: alloca value not in frame", f.Name)
	case OpShared:
		set(sharedOffsets[in.Dst])
	case OpMalloc:
		size := arg(0)
		if f.TypeOf(in.Args[0]).Kind == KindI32 {
			size = uint64(uint32(size))
		}
		b, err := ip.heap.Malloc(size)
		if err != nil {
			return fmt.Errorf("ir: interp %s: %w", f.Name, err)
		}
		set(b.Addr)
	case OpFree:
		if err := ip.heap.Free(arg(0)); err != nil {
			return fmt.Errorf("ir: interp %s: %w", f.Name, err)
		}
	case OpInvalidate:
		// Functional no-op: extent nullification has no effect on plain
		// memory contents.
	case OpAtomicAdd:
		_, m := ip.spaceOf(f.TypeOf(in.Args[0]).Space, ts, shared)
		addr := uint64(int64(arg(0)) + in.Off)
		old := m.Read(addr, 4)
		m.Write(addr, uint64(uint32(i32(old)+i32(arg(1)))), 4)
		set(old)
	case OpPtrToInt, OpIntToPtr:
		set(arg(0))
	default:
		return fmt.Errorf("ir: interp %s: unhandled op %s", f.Name, in.Op)
	}
	return nil
}

// spaceOf resolves the backing AddrSpace for a memory space.
func (ip *Interp) spaceOf(s isa.Space, ts *threadState, shared *mem.AddrSpace) (isa.Space, *mem.AddrSpace) {
	switch s {
	case isa.SpaceShared:
		return s, shared
	case isa.SpaceLocal:
		return s, ts.local
	default:
		return s, ip.Global
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(op isa.CmpOp, a, b int64) bool {
	switch op {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	default:
		return false
	}
}

func cmpFloat(op isa.CmpOp, a, b float32) bool {
	switch op {
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	default:
		return false
	}
}
