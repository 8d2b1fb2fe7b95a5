package fastsim

import (
	"fmt"
	"math/bits"

	"lmi/internal/isa"
)

// opFn is one compiled instruction: it executes the instruction for a
// warp given the block-entry active mask and returns the exec mask
// (active lanes whose guard predicate held), which the engine uses for
// tracing.
type opFn func(e *engine, w *fwarp, active uint32) uint32

// guard is an instruction's compiled guard predicate: the predicate
// file index and, for @!P, an all-ones complement mask. PT needs no
// special case: preds[PT] is the warp's launch mask, a superset of
// every active mask, and Validate rejects writes to it.
type guard struct {
	pred uint8
	neg  uint32
}

// exec returns the active lanes whose guard predicate holds.
func (g guard) exec(w *fwarp, active uint32) uint32 {
	return active & (w.preds[g.pred] ^ g.neg)
}

// termKind classifies how a basic block ends.
type termKind uint8

const (
	// termFall falls through to the next leader (no instruction).
	termFall termKind = iota
	// termBRA is a (possibly divergent) branch.
	termBRA
	// termEXIT retires the exec lanes.
	termEXIT
	// termBAR parks the warp at the block barrier.
	termBAR
)

// bblock is one compiled basic block: a run of straight-line instruction
// closures plus a terminator. Reconvergence (the rpc check) only needs
// to run at block entry: every reconvergence point is an SSY target and
// therefore a leader, so no pc inside a block body can be an rpc.
type bblock struct {
	start int    // pc of the first body instruction
	body  []opFn // one closure per straight-line instruction
	ops   []isa.Opcode
	hintA []bool

	term      termKind
	termPC    int // pc of the terminator instruction (BRA/EXIT/BAR)
	termOp    isa.Opcode
	termGuard guard
	target    int32 // BRA branch target
	next      int32 // pc after the block (fallthrough / resume point)
}

// Compiled is a kernel compiled to basic-block-level closures, ready to
// launch on the fast-path tier any number of times.
type Compiled struct {
	prog    *isa.Program // shadow program holding the decoded stream
	blocks  []bblock
	blockOf []int32 // leader pc -> block index, -1 elsewhere
	// nregs is the register file width and consts the broadcast values
	// of the constant rows (see fwarp.rf), in row order.
	nregs  int
	consts []uint64
}

// Compile compiles a program for the fast-path tier. The instruction
// stream is round-tripped through its 128-bit microcode encoding so the
// compiled tier consumes exactly what the hardware would: each word is
// decoded once, here, and never again at execution time.
func Compile(p *isa.Program) (*Compiled, error) {
	words, err := isa.EncodeProgram(p)
	if err != nil {
		return nil, err
	}
	return CompileWords(p, words)
}

// CompileWords compiles a program whose instruction stream is supplied
// as raw 128-bit microcode words — the decode boundary of the compiled
// tier. Metadata (frame, registers, parameter layout) comes from p; the
// instruction stream comes solely from words. Malformed words —
// reserved bits outside the E/A/S hint positions, invalid opcodes — are
// rejected with the decoder's positioned errors ("isa: word %d: ...").
func CompileWords(p *isa.Program, words []isa.Word) (*Compiled, error) {
	instrs, err := isa.DecodeProgram(words)
	if err != nil {
		return nil, err
	}
	shadow := *p
	shadow.Instrs = instrs
	if err := shadow.Validate(); err != nil {
		return nil, err
	}
	cc := &compiler{prog: &shadow, nregs: shadow.RegFileWidth(), rowOf: map[uint64]int{}}
	return cc.compile()
}

// compiler carries per-compilation state.
type compiler struct {
	prog   *isa.Program
	nregs  int
	consts []uint64
	rowOf  map[uint64]int // broadcast value -> its constant row
}

// Every operand is a row of the warp register file (fwarp.rf): register
// r is row r of the nregs register rows, followed by the zero row RZ
// reads, the discard row RZ writes go to, and broadcast row k of the
// k-th distinct immediate.
func zeroRow(nregs int) int     { return nregs }
func discardRow(nregs int) int  { return nregs + 1 }
func constRow(nregs, k int) int { return nregs + 2 + k }

// reg returns the row a source register reads (RZ reads the zero row).
func (cc *compiler) reg(r isa.Reg) int {
	if r == isa.RZ {
		return zeroRow(cc.nregs)
	}
	return int(r)
}

// src returns the row source operand i reads, with the immediate-form
// routing the cycle simulator applies: when the instruction is in
// immediate form and i is the operand the opcode's immediate replaces
// (the ImmSrcIndex table), the operand reads the broadcast row of the
// sign-extended immediate.
func (cc *compiler) src(in *isa.Instr, i int) int {
	if !in.HasImm || in.Op.ImmSrcIndex() != i {
		return cc.reg(in.Src[i])
	}
	v := isa.Sx32(in.Imm)
	r, ok := cc.rowOf[v]
	if !ok {
		r = constRow(cc.nregs, len(cc.consts))
		cc.rowOf[v] = r
		cc.consts = append(cc.consts, v)
	}
	return r
}

// dst returns the row an instruction's register result goes to: the
// discard row for RZ and for opcodes that write no register.
func (cc *compiler) dst(in *isa.Instr) int {
	if !in.WritesDst() || in.Dst == isa.RZ {
		return discardRow(cc.nregs)
	}
	return int(in.Dst)
}

func (cc *compiler) compile() (*Compiled, error) {
	instrs := cc.prog.Instrs
	n := len(instrs)
	c := &Compiled{prog: cc.prog, blockOf: make([]int32, n+1), nregs: cc.nregs}
	for i := range c.blockOf {
		c.blockOf[i] = -1
	}
	for _, b := range isa.NewCFG(cc.prog).Blocks() {
		c.blockOf[b.Start] = int32(len(c.blocks))
		blk := bblock{start: b.Start, term: termFall, next: int32(b.End)}
		body := b.End
		switch in := &instrs[b.End-1]; in.Op {
		case isa.BRA, isa.EXIT, isa.BAR:
			body--
			blk.termPC = body
			blk.termOp = in.Op
			blk.termGuard = guardOf(in)
			blk.target = in.Target
			switch in.Op {
			case isa.BRA:
				blk.term = termBRA
			case isa.EXIT:
				blk.term = termEXIT
			case isa.BAR:
				blk.term = termBAR
			}
		}
		for i := b.Start; i < body; i++ {
			in := &instrs[i]
			fn, err := cc.instrClosure(in, i)
			if err != nil {
				return nil, err
			}
			blk.body = append(blk.body, fn)
			blk.ops = append(blk.ops, in.Op)
			blk.hintA = append(blk.hintA, in.Hint.A)
		}
		c.blocks = append(c.blocks, blk)
	}
	c.consts = cc.consts
	return c, nil
}

// guardOf compiles an instruction's guard predicate.
func guardOf(in *isa.Instr) guard {
	g := guard{pred: uint8(in.Pred & 7)}
	if in.PredNeg {
		g.neg = ^uint32(0)
	}
	return g
}

// instrClosure compiles one straight-line (non-control-transfer)
// instruction.
func (cc *compiler) instrClosure(in *isa.Instr, pc int) (opFn, error) {
	g := guardOf(in)
	switch in.Op {
	case isa.NOP, isa.SYNC:
		// SYNC is a no-op: reconvergence is driven by the rpc check.
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			return exec
		}, nil
	case isa.SSY:
		target := in.Target
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			w.SSY(target)
			return exec
		}, nil
	case isa.MOV, isa.IADD, isa.IADD3, isa.IMUL, isa.IMAD, isa.IMNMX, isa.SHL, isa.SHR,
		isa.AND, isa.OR, isa.XOR, isa.SEL, isa.FADD, isa.FMUL, isa.FFMA, isa.MUFU,
		isa.F2I, isa.I2F:
		return cc.aluClosure(in, g), nil
	case isa.SETP, isa.FSETP:
		a, b := cc.src(in, 0), cc.src(in, 1)
		pd := in.Dst & 7
		k := in.ALU()
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			w.preds[pd] = w.preds[pd]&^exec | k.Set(w.row(a), w.row(b))&exec
			return exec
		}, nil
	case isa.S2R:
		sr := isa.SReg(in.Aux)
		d := cc.dst(in)
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			e.SpecialReg(w.row(d), exec, sr, e.ctaid, w.warpIdx, e.smID)
			return exec
		}, nil
	case isa.LDC:
		a, d := cc.reg(in.Src[0]), cc.dst(in)
		off := isa.Sx32(in.Imm)
		size := in.AccSize()
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			if exec != 0 {
				// LDC counts as a memory instruction (it is IsMemory) but,
				// like the cycle simulator, does not reset the no-progress
				// watchdog.
				e.MemInstrs[isa.LDC]++
			}
			e.LoadConst(w.row(d), w.row(a), exec, off, size)
			return exec
		}, nil
	case isa.LDG, isa.STG, isa.LDS, isa.STS, isa.LDL, isa.STL, isa.ATOMG, isa.ATOMS:
		return cc.memClosure(in, pc, g), nil
	case isa.MALLOC, isa.FREE:
		return cc.heapClosure(in, pc, g), nil
	case isa.TRAP:
		imm := in.Imm
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			e.Trap(imm, exec, e.at(pc, w))
			return exec
		}, nil
	default:
		return nil, fmt.Errorf("fastsim: %s: unhandled opcode %s at pc %d", cc.prog.Name, in.Op, pc)
	}
}

// aluClosure compiles an ALU instruction over rows: the instruction's
// isa kernel computes all 32 lanes from its source rows, and the result
// commits to the destination row on the exec lanes, narrowed to a
// sign-extended 32-bit value when the kernel says so. A full warp
// computes straight into the destination row; a partial one computes
// into the engine's result row and copies the exec lanes. When the
// Activation hint is set, the result row first goes through the OCU site
// (sim.Exec.PointerOp, with the pointer operand the S hint selects), as
// the cycle simulator's finishInt does; the unhinted form carries no
// pointer-check state.
func (cc *compiler) aluClosure(in *isa.Instr, g guard) opFn {
	k := in.ALU()
	fn, narrow, sel := k.Row, k.Narrow, k.Sel
	a, b, c := cc.src(in, 0), cc.src(in, 1), cc.src(in, 2)
	d := cc.dst(in)
	if !in.Hint.A {
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g.exec(w, active)
			e.Count(exec)
			dr := w.row(d)
			if exec == ^uint32(0) {
				// Every lane commits, so compute straight into the
				// destination row.
				fn(dr, w.row(a), w.row(b), w.row(c), w.preds[sel])
				if narrow {
					for l := range dr {
						dr[l] = isa.Sx32(int32(dr[l]))
					}
				}
				return exec
			}
			res := &e.res
			fn(res, w.row(a), w.row(b), w.row(c), w.preds[sel])
			for m := exec; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if narrow {
					dr[l] = isa.Sx32(int32(res[l]))
				} else {
					dr[l] = res[l]
				}
			}
			return exec
		}
	}
	ptr := cc.reg(in.Src[in.Hint.PointerOperand()])
	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g.exec(w, active)
		e.Count(exec)
		res, dr := &e.res, w.row(d)
		fn(res, w.row(a), w.row(b), w.row(c), w.preds[sel])
		w.vtime += e.PointerOp(w.row(ptr), res, exec, narrow)
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dr[l] = res[l]
		}
		return exec
	}
}
