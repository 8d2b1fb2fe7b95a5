package fastsim

import (
	"fmt"
	"math"
	"math/bits"

	"lmi/internal/isa"
)

// sx32 sign-extends a 32-bit value into the 64-bit register convention
// (i32 values live sign-extended in 64-bit registers), mirroring the
// cycle simulator.
func sx32(x int32) uint64 { return uint64(int64(x)) }

func f32bits(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func bitsf32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// opFn is one compiled instruction: it executes the instruction for a
// warp given the block-entry active mask and returns the exec mask
// (active lanes whose guard predicate held), which the engine uses for
// tracing. Closures update engine statistics exactly the way the cycle
// simulator's issue path does.
type opFn func(e *engine, w *fwarp, active uint32) uint32

// guardFn resolves an instruction's guard predicate against a warp's
// predicate file. Compiled once per instruction: the unconditional (@PT)
// form — the overwhelmingly common case — is the identity.
type guardFn func(w *fwarp, active uint32) uint32

// srcFn reads one routed source operand from a lane's register file.
// The routing decision (register vs immediate form vs hardwired RZ) is
// made at compile time via the ISA's ImmSrcIndex table.
type srcFn func(regs []uint64) uint64

func zeroSrc([]uint64) uint64 { return 0 }

func regSrc(r isa.Reg) srcFn {
	if r == isa.RZ {
		return zeroSrc
	}
	return func(regs []uint64) uint64 { return regs[r] }
}

func immSrc(v uint64) srcFn { return func([]uint64) uint64 { return v } }

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
	termGuard guardFn
	target    int32 // BRA branch target
	next      int32 // pc after the block (fallthrough / resume point)
}

// Compiled is a kernel compiled to basic-block-level closures, ready to
// launch on the fast-path tier any number of times.
type Compiled struct {
	prog    *isa.Program // shadow program holding the decoded stream
	blocks  []bblock
	blockOf []int32 // leader pc -> block index, -1 elsewhere
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
	cc := &compiler{prog: &shadow}
	return cc.compile()
}

// compiler carries per-compilation state.
type compiler struct {
	prog *isa.Program
}

func (cc *compiler) compile() (*Compiled, error) {
	instrs := cc.prog.Instrs
	n := len(instrs)
	c := &Compiled{prog: cc.prog, blockOf: make([]int32, n+1)}
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
			blk.termGuard = cc.guard(in)
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
	return c, nil
}

// guard compiles an instruction's guard predicate. @PT compiles to the
// identity (PT is hardwired true: Validate rejects writes to it).
func (cc *compiler) guard(in *isa.Instr) guardFn {
	p := in.Pred & 7
	if p == isa.PT && !in.PredNeg {
		return func(_ *fwarp, active uint32) uint32 { return active }
	}
	if in.PredNeg {
		return func(w *fwarp, active uint32) uint32 { return active &^ w.preds[p] }
	}
	return func(w *fwarp, active uint32) uint32 { return active & w.preds[p] }
}

// operand compiles source operand i with the immediate-form routing the
// cycle simulator applies: when the instruction is in immediate form and
// i is the operand the opcode's immediate replaces (the ImmSrcIndex
// table), the sign-extended immediate is baked in; otherwise the operand
// reads its register (RZ hardwired to zero).
func (cc *compiler) operand(in *isa.Instr, i int) srcFn {
	if in.HasImm && in.Op.ImmSrcIndex() == i {
		return immSrc(sx32(in.Imm))
	}
	return regSrc(in.Src[i])
}

// Compile-time operand forms, used to specialise the hot integer ALU
// ops (the addressing backbone: MOV/IADD/IADD3/IMAD/SHL and SETP) so
// their per-lane computation reads registers and immediates directly
// instead of chaining srcFn calls.
const (
	formZero = iota // hardwired RZ
	formReg
	formImm
)

// srcForm classifies routed source operand i with the same routing as
// operand.
func (cc *compiler) srcForm(in *isa.Instr, i int) (kind int, r isa.Reg, imm uint64) {
	if in.HasImm && in.Op.ImmSrcIndex() == i {
		return formImm, 0, sx32(in.Imm)
	}
	if in.Src[i] == isa.RZ {
		return formZero, 0, 0
	}
	return formReg, in.Src[i], 0
}

// laneVal computes an ALU result for one lane.
type laneVal func(w *fwarp, regs []uint64, lane int) uint64

// fusedAdd compiles an unhinted register-writing IADD in its dominant
// operand forms all the way down to a dedicated lane loop — IADD is
// the single hottest opcode, so it alone earns closures with no
// laneVal indirection at all. Returns nil when the form is not one of
// the fused ones (intClosure handles it then).
func (cc *compiler) fusedAdd(in *isa.Instr, g guardFn) opFn {
	if in.Hint.A || !in.WritesDst() || in.Dst == isa.RZ {
		return nil
	}
	w64 := in.W64()
	aK, aR, _ := cc.srcForm(in, 0)
	bK, bR, bI := cc.srcForm(in, 1)
	di, ai, bi := int(in.Dst), int(aR), int(bR)
	switch {
	case aK == formReg && bK == formImm && w64:
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			for m := exec; m != 0; m &= m - 1 {
				base := bits.TrailingZeros32(m) * nr
				rf[base+di] = rf[base+ai] + bI
			}
			return exec
		}
	case aK == formReg && bK == formImm:
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			for m := exec; m != 0; m &= m - 1 {
				base := bits.TrailingZeros32(m) * nr
				rf[base+di] = sx32(int32(rf[base+ai] + bI))
			}
			return exec
		}
	case aK == formReg && bK == formReg && w64:
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			for m := exec; m != 0; m &= m - 1 {
				base := bits.TrailingZeros32(m) * nr
				rf[base+di] = rf[base+ai] + rf[base+bi]
			}
			return exec
		}
	case aK == formReg && bK == formReg:
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			for m := exec; m != 0; m &= m - 1 {
				base := bits.TrailingZeros32(m) * nr
				rf[base+di] = sx32(int32(rf[base+ai] + rf[base+bi]))
			}
			return exec
		}
	}
	return nil
}

// addVal compiles IADD's lane computation, inlining the dominant
// reg+imm and reg+reg forms.
func (cc *compiler) addVal(in *isa.Instr) laneVal {
	aK, aR, _ := cc.srcForm(in, 0)
	bK, bR, bI := cc.srcForm(in, 1)
	switch {
	case aK == formReg && bK == formImm:
		return func(_ *fwarp, regs []uint64, _ int) uint64 { return regs[aR] + bI }
	case aK == formReg && bK == formReg:
		return func(_ *fwarp, regs []uint64, _ int) uint64 { return regs[aR] + regs[bR] }
	case aK == formReg && bK == formZero:
		return func(_ *fwarp, regs []uint64, _ int) uint64 { return regs[aR] }
	}
	a, b := cc.operand(in, 0), cc.operand(in, 1)
	return func(_ *fwarp, regs []uint64, _ int) uint64 { return a(regs) + b(regs) }
}

// add3Val compiles IADD3's lane computation, inlining the all-register
// and reg+reg+imm forms.
func (cc *compiler) add3Val(in *isa.Instr) laneVal {
	aK, aR, _ := cc.srcForm(in, 0)
	bK, bR, _ := cc.srcForm(in, 1)
	cK, cR, cI := cc.srcForm(in, 2)
	if aK == formReg && bK == formReg {
		switch cK {
		case formReg:
			return func(_ *fwarp, regs []uint64, _ int) uint64 {
				return regs[aR] + regs[bR] + regs[cR]
			}
		case formImm:
			return func(_ *fwarp, regs []uint64, _ int) uint64 {
				return regs[aR] + regs[bR] + cI
			}
		}
	}
	a, b, c := cc.operand(in, 0), cc.operand(in, 1), cc.operand(in, 2)
	return func(_ *fwarp, regs []uint64, _ int) uint64 { return a(regs) + b(regs) + c(regs) }
}

// madVal compiles IMAD's lane computation, inlining the reg*imm+reg
// (strided addressing) and all-register forms.
func (cc *compiler) madVal(in *isa.Instr) laneVal {
	aK, aR, _ := cc.srcForm(in, 0)
	bK, bR, bI := cc.srcForm(in, 1)
	cK, cR, _ := cc.srcForm(in, 2)
	if aK == formReg && cK == formReg {
		switch bK {
		case formImm:
			k := int64(bI)
			return func(_ *fwarp, regs []uint64, _ int) uint64 {
				return uint64(int64(regs[aR])*k + int64(regs[cR]))
			}
		case formReg:
			return func(_ *fwarp, regs []uint64, _ int) uint64 {
				return uint64(int64(regs[aR])*int64(regs[bR]) + int64(regs[cR]))
			}
		}
	}
	a, b, c := cc.operand(in, 0), cc.operand(in, 1), cc.operand(in, 2)
	return func(_ *fwarp, regs []uint64, _ int) uint64 {
		return uint64(int64(a(regs))*int64(b(regs)) + int64(c(regs)))
	}
}

// instrClosure compiles one straight-line (non-control-transfer)
// instruction.
func (cc *compiler) instrClosure(in *isa.Instr, pc int) (opFn, error) {
	g := cc.guard(in)
	switch in.Op {
	case isa.NOP, isa.SYNC:
		// SYNC is a no-op: reconvergence is driven by the rpc check.
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			return exec
		}, nil
	case isa.SSY:
		target := in.Target
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			w.pendingSSY = target
			return exec
		}, nil
	case isa.MOV:
		if k, r, imm := cc.srcForm(in, 0); !in.Hint.A && in.WritesDst() && in.Dst != isa.RZ && k != formZero {
			// Fused register/immediate move (MOV is always 32-bit-narrowed
			// unless W64, and immediates/registers are pre-narrowed
			// consistently, so narrowing folds into the baked value).
			di, ri := int(in.Dst), int(r)
			w64 := in.W64()
			if k == formImm {
				if !w64 {
					imm = sx32(int32(imm))
				}
				return func(e *engine, w *fwarp, active uint32) uint32 {
					exec := g(w, active)
					e.count(exec)
					rf, nr := w.rf, w.nregs
					for m := exec; m != 0; m &= m - 1 {
						rf[bits.TrailingZeros32(m)*nr+di] = imm
					}
					return exec
				}, nil
			}
			if w64 {
				return func(e *engine, w *fwarp, active uint32) uint32 {
					exec := g(w, active)
					e.count(exec)
					rf, nr := w.rf, w.nregs
					for m := exec; m != 0; m &= m - 1 {
						base := bits.TrailingZeros32(m) * nr
						rf[base+di] = rf[base+ri]
					}
					return exec
				}, nil
			}
			return func(e *engine, w *fwarp, active uint32) uint32 {
				exec := g(w, active)
				e.count(exec)
				rf, nr := w.rf, w.nregs
				for m := exec; m != 0; m &= m - 1 {
					base := bits.TrailingZeros32(m) * nr
					rf[base+di] = sx32(int32(rf[base+ri]))
				}
				return exec
			}, nil
		}
		a := cc.operand(in, 0)
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return a(regs)
		}), nil
	case isa.IADD:
		if fn := cc.fusedAdd(in, g); fn != nil {
			return fn, nil
		}
		return cc.intClosure(in, g, cc.addVal(in)), nil
	case isa.IADD3:
		return cc.intClosure(in, g, cc.add3Val(in)), nil
	case isa.IMUL:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return uint64(int64(a(regs)) * int64(b(regs)))
		}), nil
	case isa.IMAD:
		return cc.intClosure(in, g, cc.madVal(in)), nil
	case isa.IMNMX:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		isMax := in.Aux == 1
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			av, bv := int64(a(regs)), int64(b(regs))
			if isMax == (av > bv) {
				return uint64(av)
			}
			return uint64(bv)
		}), nil
	case isa.SHL:
		// Shift-by-immediate of a register is the dominant form (address
		// scaling); fuse it into a dedicated lane loop for both widths.
		if aK, aR, _ := cc.srcForm(in, 0); aK == formReg && !in.Hint.A &&
			in.WritesDst() && in.Dst != isa.RZ {
			if bK, _, bI := cc.srcForm(in, 1); bK == formImm {
				di, ai := int(in.Dst), int(aR)
				if in.W64() {
					sh := bI & 63
					return func(e *engine, w *fwarp, active uint32) uint32 {
						exec := g(w, active)
						e.count(exec)
						rf, nr := w.rf, w.nregs
						for m := exec; m != 0; m &= m - 1 {
							base := bits.TrailingZeros32(m) * nr
							rf[base+di] = rf[base+ai] << sh
						}
						return exec
					}, nil
				}
				sh := bI & 31
				return func(e *engine, w *fwarp, active uint32) uint32 {
					exec := g(w, active)
					e.count(exec)
					rf, nr := w.rf, w.nregs
					for m := exec; m != 0; m &= m - 1 {
						base := bits.TrailingZeros32(m) * nr
						rf[base+di] = sx32(int32(uint32(rf[base+ai]) << sh))
					}
					return exec
				}, nil
			}
		}
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		if in.W64() {
			return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
				return a(regs) << (b(regs) & 63)
			}), nil
		}
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return uint64(uint32(a(regs)) << (b(regs) & 31))
		}), nil
	case isa.SHR:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		if in.W64() {
			return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
				return a(regs) >> (b(regs) & 63)
			}), nil
		}
		// 32-bit logical shift (the narrowing in intClosure sign-extends
		// the 32-bit result into the register).
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return uint64(uint32(a(regs)) >> (b(regs) & 31))
		}), nil
	case isa.AND:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return a(regs) & b(regs)
		}), nil
	case isa.OR:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return a(regs) | b(regs)
		}), nil
	case isa.XOR:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return cc.intClosure(in, g, func(_ *fwarp, regs []uint64, _ int) uint64 {
			return a(regs) ^ b(regs)
		}), nil
	case isa.SEL:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		sel := in.Aux & 7
		return cc.intClosure(in, g, func(w *fwarp, regs []uint64, lane int) uint64 {
			if w.preds[sel]&(1<<uint(lane)) != 0 {
				return a(regs)
			}
			return b(regs)
		}), nil
	case isa.SETP:
		pd := in.Dst & 7
		cmp := isa.CmpOp(in.Aux)
		// Loop-condition SETPs are hot: specialise the reg-vs-imm and
		// reg-vs-reg forms to direct register reads.
		aK, aR, _ := cc.srcForm(in, 0)
		bK, bR, bI := cc.srcForm(in, 1)
		switch {
		case aK == formReg && bK == formImm:
			k := int64(bI)
			ai := int(aR)
			return func(e *engine, w *fwarp, active uint32) uint32 {
				exec := g(w, active)
				e.count(exec)
				rf, nr := w.rf, w.nregs
				var set uint32
				for m := exec; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					if cmpSigned(cmp, int64(rf[lane*nr+ai]), k) {
						set |= 1 << uint(lane)
					}
				}
				w.preds[pd] = w.preds[pd]&^exec | set
				return exec
			}, nil
		case aK == formReg && bK == formReg:
			ai, bi := int(aR), int(bR)
			return func(e *engine, w *fwarp, active uint32) uint32 {
				exec := g(w, active)
				e.count(exec)
				rf, nr := w.rf, w.nregs
				var set uint32
				for m := exec; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					base := lane * nr
					if cmpSigned(cmp, int64(rf[base+ai]), int64(rf[base+bi])) {
						set |= 1 << uint(lane)
					}
				}
				w.preds[pd] = w.preds[pd]&^exec | set
				return exec
			}, nil
		}
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			var set uint32
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				regs := rf[lane*nr : lane*nr+nr]
				if cmpSigned(cmp, int64(a(regs)), int64(b(regs))) {
					set |= 1 << uint(lane)
				}
			}
			w.preds[pd] = w.preds[pd]&^exec | set
			return exec
		}, nil
	case isa.FSETP:
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		pd := in.Dst & 7
		cmp := isa.CmpOp(in.Aux)
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			var set uint32
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				regs := rf[lane*nr : lane*nr+nr]
				if cmpF32(cmp, f32bits(a(regs)), f32bits(b(regs))) {
					set |= 1 << uint(lane)
				}
			}
			w.preds[pd] = w.preds[pd]&^exec | set
			return exec
		}, nil
	case isa.FADD:
		if aK, aR, _ := cc.srcForm(in, 0); aK == formReg {
			if bK, bR, _ := cc.srcForm(in, 1); bK == formReg {
				return cc.fpClosure(in, g, func(regs []uint64) uint64 {
					return bitsf32(f32bits(regs[aR]) + f32bits(regs[bR]))
				}), nil
			}
		}
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return cc.fpClosure(in, g, func(regs []uint64) uint64 {
			return bitsf32(f32bits(a(regs)) + f32bits(b(regs)))
		}), nil
	case isa.FMUL:
		if aK, aR, _ := cc.srcForm(in, 0); aK == formReg {
			if bK, bR, _ := cc.srcForm(in, 1); bK == formReg {
				return cc.fpClosure(in, g, func(regs []uint64) uint64 {
					return bitsf32(f32bits(regs[aR]) * f32bits(regs[bR]))
				}), nil
			}
		}
		a, b := cc.operand(in, 0), cc.operand(in, 1)
		return cc.fpClosure(in, g, func(regs []uint64) uint64 {
			return bitsf32(f32bits(a(regs)) * f32bits(b(regs)))
		}), nil
	case isa.FFMA:
		aK, aR, _ := cc.srcForm(in, 0)
		bK, bR, _ := cc.srcForm(in, 1)
		cK, cR, _ := cc.srcForm(in, 2)
		if aK == formReg && bK == formReg && cK == formReg {
			return cc.fpClosure(in, g, func(regs []uint64) uint64 {
				return bitsf32(f32bits(regs[aR])*f32bits(regs[bR]) + f32bits(regs[cR]))
			}), nil
		}
		a, b, c := cc.operand(in, 0), cc.operand(in, 1), cc.operand(in, 2)
		return cc.fpClosure(in, g, func(regs []uint64) uint64 {
			return bitsf32(f32bits(a(regs))*f32bits(b(regs)) + f32bits(c(regs)))
		}), nil
	case isa.MUFU:
		a := regSrc(in.Src[0])
		fn := isa.MufuFn(in.Aux)
		return cc.fpClosure(in, g, func(regs []uint64) uint64 {
			x := f32bits(a(regs))
			switch fn {
			case isa.MufuRCP:
				return bitsf32(1 / x)
			case isa.MufuSQRT:
				return bitsf32(float32(math.Sqrt(float64(x))))
			case isa.MufuEX2:
				return bitsf32(float32(math.Exp2(float64(x))))
			case isa.MufuLG2:
				return bitsf32(float32(math.Log2(float64(x))))
			case isa.MufuSIN:
				return bitsf32(float32(math.Sin(float64(x))))
			default:
				return 0
			}
		}), nil
	case isa.F2I:
		// The cycle simulator reads the register form regardless of
		// HasImm for F2I/I2F; mirror it.
		a := regSrc(in.Src[0])
		return cc.fpClosure(in, g, func(regs []uint64) uint64 {
			return sx32(int32(f32bits(a(regs))))
		}), nil
	case isa.I2F:
		a := regSrc(in.Src[0])
		return cc.fpClosure(in, g, func(regs []uint64) uint64 {
			return bitsf32(float32(int64(a(regs))))
		}), nil
	case isa.S2R:
		sr := isa.SReg(in.Aux)
		dst := in.Dst
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			if dst == isa.RZ {
				return exec
			}
			rf, nr := w.rf, w.nregs
			di := int(dst)
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				rf[lane*nr+di] = e.specialReg(w, lane, sr)
			}
			return exec
		}, nil
	case isa.LDC:
		a := regSrc(in.Src[0])
		off := sx32(in.Imm)
		size := in.AccSize()
		dst := in.Dst
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			if exec != 0 {
				// LDC counts as a memory instruction (it is IsMemory) but,
				// like the cycle simulator, does not reset the no-progress
				// watchdog.
				e.memInstrs[isa.LDC]++
			}
			cw := pageWin{as: e.cbank}
			rf, nr := w.rf, w.nregs
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				regs := rf[lane*nr : lane*nr+nr]
				v := cw.load(a(regs)+off, size)
				if dst != isa.RZ {
					regs[dst] = v
				}
			}
			return exec
		}, nil
	case isa.LDG, isa.STG, isa.LDS, isa.STS, isa.LDL, isa.STL, isa.ATOMG, isa.ATOMS:
		return cc.memClosure(in, pc, g), nil
	case isa.MALLOC, isa.FREE:
		return cc.heapClosure(in, pc, g), nil
	case isa.TRAP:
		imm := in.Imm
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			if exec != 0 {
				// One record per warp instruction suffices, attributed to
				// the lowest executing lane.
				e.trap(pc, w, bits.TrailingZeros32(exec), imm)
			}
			return exec
		}, nil
	default:
		return nil, fmt.Errorf("fastsim: %s: unhandled opcode %s at pc %d", cc.prog.Name, in.Op, pc)
	}
}

// intClosure wraps an integer-ALU lane computation with the shared
// integer body: 32-bit narrowing unless the W64 flag is set, then the
// mechanism's pointer check when the Activation hint is set (the S hint
// selects the pointer operand) — all decided at compile time. The lane
// sweep iterates the exec mask bit by bit so inactive lanes cost
// nothing; the A-hinted form is compiled separately so the common
// unhinted case carries no pointer-check state.
func (cc *compiler) intClosure(in *isa.Instr, g guardFn, val laneVal) opFn {
	w64 := in.W64()
	dst := in.Dst
	writes := in.WritesDst() && dst != isa.RZ
	if !in.Hint.A {
		return func(e *engine, w *fwarp, active uint32) uint32 {
			exec := g(w, active)
			e.count(exec)
			rf, nr := w.rf, w.nregs
			for m := exec; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				regs := rf[lane*nr : lane*nr+nr]
				out := val(w, regs, lane)
				if !w64 {
					out = sx32(int32(out))
				}
				if writes {
					regs[dst] = out
				}
			}
			return exec
		}
	}
	ptrReg := in.Src[in.Hint.PointerOperand()]
	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g(w, active)
		e.count(exec)
		// Every executing lane runs exactly one pointer check
		// (CheckPointerOp cannot fault), so the counter hoists out of
		// the lane loop.
		e.stats.PointerChecks += uint64(bits.OnesCount32(exec))
		extraMax := uint64(0)
		rf, nr := w.rf, w.nregs
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			regs := rf[lane*nr : lane*nr+nr]
			out := val(w, regs, lane)
			if !w64 {
				out = sx32(int32(out))
			}
			ptr := uint64(0)
			if ptrReg != isa.RZ {
				ptr = regs[ptrReg]
			}
			res, extra := e.mech.CheckPointerOp(ptr, out)
			out = res
			if extra > extraMax {
				extraMax = extra
			}
			if writes {
				regs[dst] = out
			}
		}
		w.vtime += extraMax
		return exec
	}
}

// fpClosure wraps a floating-point lane computation (no hints, no
// narrowing — FP results are 32-bit payloads in the register low word).
func (cc *compiler) fpClosure(in *isa.Instr, g guardFn, val func(regs []uint64) uint64) opFn {
	dst := in.Dst
	writes := in.WritesDst() && dst != isa.RZ
	return func(e *engine, w *fwarp, active uint32) uint32 {
		exec := g(w, active)
		e.count(exec)
		if !writes {
			return exec
		}
		rf, nr := w.rf, w.nregs
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			regs := rf[lane*nr : lane*nr+nr]
			regs[dst] = val(regs)
		}
		return exec
	}
}

func cmpSigned(op isa.CmpOp, a, b int64) bool {
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

func cmpF32(op isa.CmpOp, a, b float32) bool {
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
