package lint

import (
	"fmt"
	"math"

	"lmi/internal/compiler"
	"lmi/internal/core"
	"lmi/internal/isa"
)

// absVal is one point of the per-register abstract lattice.
type absVal uint8

const (
	vBot        absVal = iota // no information (unreached)
	vData                     // plain integer or float data
	vAddr                     // untagged address (stack pointer, pre-tag base, base-mode pointer)
	vExt                      // extent material: an extent value shifted into bits 63:59
	vPtr                      // live tagged pointer
	vPtrShift                 // pointer mid-nullification (after SHL #5)
	vFreed                    // freed pointer whose extent has not been nullified yet
	vFreedShift               // freed pointer mid-nullification
	vNull                     // nullified pointer (extent cleared, §VIII)
	vConflict                 // incompatible values joined at a control-flow merge
)

// String returns the lattice-point name used in diagnostics.
func (v absVal) String() string {
	switch v {
	case vBot:
		return "bottom"
	case vData:
		return "data"
	case vAddr:
		return "untagged-address"
	case vExt:
		return "extent-material"
	case vPtr:
		return "tagged-pointer"
	case vPtrShift:
		return "pointer-mid-nullification"
	case vFreed:
		return "freed-pointer"
	case vFreedShift:
		return "freed-pointer-mid-nullification"
	case vNull:
		return "nullified-pointer"
	case vConflict:
		return "conflict"
	default:
		return fmt.Sprintf("absVal(%d)", uint8(v))
	}
}

// regState is the abstract register file at one program point: one
// slot per register below the program's isa.CFG.RegWidth. RZ has no
// slot; it reads as data.
type regState []absVal

// join is the lattice join: vBot is the identity, equal values are
// preserved, and incompatible values widen to vConflict. The lattice is
// flat (vBot < everything < vConflict), so entry states climb a
// three-level chain and the fixpoint terminates.
func join(a, b absVal) absVal {
	switch {
	case a == b:
		return a
	case a == vBot:
		return b
	case b == vBot:
		return a
	}
	return vConflict
}

// mergeInto joins src into dst elementwise, reporting whether dst grew.
func mergeInto(dst, src regState) bool {
	changed := false
	for r := range dst {
		if j := join(dst[r], src[r]); j != dst[r] {
			dst[r] = j
			changed = true
		}
	}
	return changed
}

// hintAllow is the set of opcodes the lowering legitimately hints:
// pointer arithmetic (GEP -> IADD/IADD3, and IMAD for completeness),
// pointer moves (Copy -> MOV), and pointer selects (Select -> SEL). An
// Activation hint on any other opcode is spurious by construction — the
// trusted tagging (OR) and nullification (SHL/SHR) idioms are
// deliberately unhinted (§IV-A2, §VIII).
var hintAllow = [256]bool{
	isa.IADD: true, isa.IADD3: true, isa.IMAD: true,
	isa.MOV: true, isa.SEL: true,
}

// intALU is the integer-ALU group the abstract transfer models
// register-by-register (SETP writes a predicate and is handled apart).
var intALU = [256]bool{
	isa.IADD: true, isa.IADD3: true, isa.IMUL: true, isa.IMAD: true,
	isa.IMNMX: true, isa.SHL: true, isa.SHR: true,
	isa.AND: true, isa.OR: true, isa.XOR: true,
	isa.MOV: true, isa.SEL: true,
}

// linter carries one analysis run on the fixpoint driver.
type linter struct {
	p    *isa.Program
	mode compiler.Mode
	fx   isa.Fixpoint[regState, absVal]

	report  bool   // the final walk: emit diagnostics and record ptrNeed
	ptrNeed []bool // register-level "this instruction needs a hint" facts
	diags   []Diag
}

// Check runs the abstract interpreter over a program and returns every
// contract violation found. Under ModeLMI the full contract is checked;
// under ModeBase the contract is the absence of hint bits (base-mode
// programs carry no tagging, so the pointer rules are vacuous).
func Check(p *isa.Program, mode compiler.Mode) []Diag {
	d, _, _ := run(p, mode)
	return d
}

// CheckWithSource runs Check and additionally cross-checks three views
// of every reachable instruction against each other: the IR-level
// pointer-operand fact recorded in the source map, the hint bits the
// program actually carries, and the linter's own register-level
// dataflow. Any pairwise disagreement is a KindDifferential diagnostic.
// The source map must be the one CompileWithSourceMap returned for this
// exact (unoptimized, uninstrumented) program.
func CheckWithSource(p *isa.Program, mode compiler.Mode, src []compiler.SourceLoc) []Diag {
	diags, ptrNeed, reachable := run(p, mode)
	if src == nil {
		return diags
	}
	if len(src) != len(p.Instrs) {
		return append(diags, Diag{Kind: KindDifferential, Instr: 0, Op: p.Instrs[0].Op.String(),
			Reg: isa.RZ, Detail: fmt.Sprintf(
				"source map has %d entries for %d instructions (program rewritten after compilation?)",
				len(src), len(p.Instrs))})
	}
	for i := range p.Instrs {
		if !reachable[i] {
			continue
		}
		fact, hint := src[i].Fact, p.Instrs[i].Hint.A
		if fact != hint {
			diags = append(diags, Diag{Kind: KindDifferential, Instr: i,
				Op: p.Instrs[i].Op.String(), Reg: isa.RZ, Detail: fmt.Sprintf(
					"IR pointer fact %v disagrees with emitted A hint %v", fact, hint)})
		}
		if fact != ptrNeed[i] {
			diags = append(diags, Diag{Kind: KindDifferential, Instr: i,
				Op: p.Instrs[i].Op.String(), Reg: isa.RZ, Detail: fmt.Sprintf(
					"IR pointer fact %v disagrees with register-level dataflow %v", fact, ptrNeed[i])})
		}
	}
	return diags
}

// run runs the fixpoint (analyze) and then the final walk, the only
// one that emits diagnostics and records ptrNeed and reachable.
func run(p *isa.Program, mode compiler.Mode) (diags []Diag, ptrNeed, reachable []bool) {
	l := analyze(p, mode)
	l.report = true
	reachable = make([]bool, len(p.Instrs))
	l.fx.Final(func(pc int, _ *regState) { reachable[pc] = true })
	return l.diags, l.ptrNeed, reachable
}

// analyze runs the fixpoint. The entry state holds plain data in every
// register: uninitialized registers carry garbage, which the contract
// treats as data (using one as an address is itself a violation).
func analyze(p *isa.Program, mode compiler.Mode) *linter {
	l := &linter{p: p, mode: mode, ptrNeed: make([]bool, len(p.Instrs))}
	l.fx.Pass, l.fx.Scratch = l, 1
	l.fx.Init(isa.NewCFG(p))
	l.fx.Run(func(st *regState) {
		for r := range *st {
			(*st)[r] = vData
		}
	}, math.MaxInt)
	return l
}

// Bind, Copy, Step, Edge and Join make the linter an isa.Pass.
func (l *linter) Bind(st *regState, regs []absVal)                { *st = regs }
func (l *linter) Copy(dst, src *regState)                         { copy(*dst, *src) }
func (l *linter) Edge(pc int, e isa.Edge, st *regState) *regState { return st }
func (l *linter) Join(from, to int, dst, src *regState, fresh bool) bool {
	if fresh {
		copy(*dst, *src)
		return true
	}
	return mergeInto(*dst, *src)
}

// Step advances st past instruction i. A predicated instruction's lanes
// may skip its effect, so the state after it is the join of effect and
// identity.
func (l *linter) Step(i int, st *regState) {
	if in := &l.p.Instrs[i]; in.Pred == isa.PT && !in.PredNeg {
		l.step(i, *st, l.report)
		return
	}
	pre := *l.fx.ScratchState(0)
	copy(pre, *st)
	l.step(i, *st, l.report)
	mergeInto(*st, pre)
}

// step applies the abstract transfer of instruction i to st. With
// report set it also appends diagnostics and records the register-level
// pointer-operation fact; the transfer itself is identical in both
// passes, so diagnostics are emitted exactly once, against the
// converged entry states.
func (l *linter) step(i int, st regState, report bool) {
	in := &l.p.Instrs[i]
	lmi := l.mode == compiler.ModeLMI

	get := func(r isa.Reg) absVal {
		if r == isa.RZ {
			return vData
		}
		return st[r]
	}
	set := func(r isa.Reg, v absVal) {
		if r != isa.RZ {
			st[r] = v
		}
	}
	diag := func(k Kind, r isa.Reg, format string, args ...any) {
		if report {
			l.diags = append(l.diags, Diag{Kind: k, Instr: i, Op: in.Op.String(),
				Reg: r, Detail: fmt.Sprintf(format, args...)})
		}
	}

	switch {
	case in.Op == isa.NOP || in.Op == isa.SSY || in.Op == isa.SYNC ||
		in.Op == isa.BAR || in.Op == isa.BRA || in.Op == isa.TRAP:
		return

	case in.Op == isa.EXIT:
		if lmi {
			for r := range st {
				if st[r] == vFreed || st[r] == vFreedShift {
					diag(KindMissingNullify, isa.Reg(r),
						"%s reaches EXIT as a freed pointer whose extent was never nullified (§VIII)",
						isa.Reg(r))
				}
			}
		}
		return

	case in.Op == isa.SETP || in.Op == isa.FSETP:
		// Predicate write; no GP-register effect. Comparisons never
		// reach the OCU datapath, so a hint here is spurious.
		if in.Hint.A {
			diag(KindSpuriousHint, isa.RZ, "Activation hint on predicate-writing %s", in.Op)
		}
		return

	case in.Op == isa.S2R:
		set(in.Dst, vData)
		return

	case in.Op == isa.LDC:
		v := vData
		if in.Src[0] == isa.RZ {
			off := int(in.Imm)
			switch {
			case off == l.p.StackPtrConst:
				v = vAddr // the per-thread stack top (c[0x0][0x28], Fig. 7)
			case off >= l.p.ParamBase && (off-l.p.ParamBase)%8 == 0:
				idx := (off - l.p.ParamBase) / 8
				if idx < l.p.NumParams && idx < len(l.p.ParamPtrs) && l.p.ParamPtrs[idx] {
					if lmi {
						v = vPtr // the driver hands tagged parameter pointers
					} else {
						v = vAddr
					}
				}
			}
		}
		set(in.Dst, v)
		return

	case in.Op == isa.MALLOC:
		if lmi {
			set(in.Dst, vPtr) // the device allocator returns tagged pointers
		} else {
			set(in.Dst, vAddr)
		}
		return

	case in.Op == isa.FREE:
		pv := get(in.Src[0])
		if lmi {
			if pv != vPtr && pv != vConflict {
				diag(KindUntracedAddress, in.Src[0],
					"FREE of %s, which holds %s rather than a tagged pointer", in.Src[0], pv)
			}
			// The register still holds the stale tagged pointer; the
			// §VIII contract demands nullification before EXIT.
			set(in.Src[0], vFreed)
		}
		return

	case in.Op.IsMemory(): // LDG/STG/LDS/STS/LDL/STL/ATOMG/ATOMS
		if lmi {
			switch addr := get(in.Src[0]); addr {
			case vPtr, vConflict:
				// Traced (or unprovable — stay quiet on conflicts).
			case vFreed, vFreedShift, vPtrShift:
				diag(KindUntracedAddress, in.Src[0],
					"address %s holds a %s", in.Src[0], addr)
			case vNull:
				diag(KindUntracedAddress, in.Src[0],
					"address %s holds a nullified pointer", in.Src[0])
			default:
				diag(KindUntracedAddress, in.Src[0],
					"address %s cannot be traced to a tagged allocation (holds %s)", in.Src[0], addr)
			}
			if in.Op.IsStore() {
				switch dv := get(in.Src[1]); dv {
				case vPtr, vFreed, vPtrShift, vFreedShift, vExt:
					diag(KindExtentLeak, in.Src[1],
						"store data %s holds %s — pointers must not escape to memory (§VI-A)",
						in.Src[1], dv)
				}
			}
		}
		if in.WritesDst() {
			// Loaded values are data: LMI bans in-memory pointers, so
			// nothing tagged can come back from memory.
			set(in.Dst, vData)
		}
		return

	case in.Op.IsFloat(): // FADD/FMUL/FFMA/MUFU/F2I/I2F (FSETP handled above)
		if lmi {
			var buf [3]isa.Reg
			for _, r := range in.SrcRegs(buf[:0]) {
				switch sv := get(r); sv {
				case vPtr, vFreed, vPtrShift, vFreedShift, vExt:
					diag(KindExtentLeak, r,
						"%s operand %s holds %s — pointers never use the FP datapath (§VII)",
						in.Op, r, sv)
				}
			}
		}
		set(in.Dst, vData)
		return
	}

	if !intALU[in.Op] {
		// Exhaustive over the ISA today; future opcodes default to
		// clobbering their destination with data.
		if in.WritesDst() {
			set(in.Dst, vData)
		}
		return
	}

	// ---- Integer ALU ----

	if in.Hint.A && !lmi {
		diag(KindSpuriousHint, isa.RZ, "Activation hint in a base-mode program")
	}

	// Trusted unhinted codegen idioms (LMI only). Pointer generation:
	// MOV tmp,#e; SHL tmp,tmp,#59; OR rd,rd,tmp (§IV-A2). Pointer
	// destruction: SHL r,r,#5; SHR r,r,#5 (§VIII).
	if lmi && !in.Hint.A {
		switch {
		case in.Op == isa.SHL && in.HasImm && in.Imm == int32(core.ExtentShift) &&
			in.W64() && get(in.Src[0]) == vData:
			set(in.Dst, vExt)
			return
		case in.Op == isa.SHL && in.HasImm && in.Imm == int32(core.ExtentFieldBits) && in.W64():
			switch get(in.Src[0]) {
			case vPtr:
				set(in.Dst, vPtrShift)
				return
			case vFreed:
				set(in.Dst, vFreedShift)
				return
			}
		case in.Op == isa.SHR && in.HasImm && in.Imm == int32(core.ExtentFieldBits) && in.W64():
			switch get(in.Src[0]) {
			case vPtrShift, vFreedShift:
				set(in.Dst, vNull)
				return
			}
		case in.Op == isa.OR && !in.HasImm && in.W64():
			a, b := get(in.Src[0]), get(in.Src[1])
			if (a == vExt && (b == vData || b == vAddr)) ||
				(b == vExt && (a == vData || a == vAddr)) {
				set(in.Dst, vPtr) // pointer generation completes here
				return
			}
		}
	}

	var buf [3]isa.Reg
	srcs := in.SrcRegs(buf[:0])
	anyPtr, anyExt, anyAddr, anyConflict := false, false, false, false
	var ptrReg, extReg isa.Reg
	for _, r := range srcs {
		switch get(r) {
		case vPtr, vFreed:
			if !anyPtr {
				ptrReg = r
			}
			anyPtr = true
		case vExt:
			if !anyExt {
				extReg = r
			}
			anyExt = true
		case vAddr:
			anyAddr = true
		case vConflict:
			anyConflict = true
		}
	}
	if report {
		l.ptrNeed[i] = hintAllow[in.Op] && anyPtr
	}
	generic := func() absVal {
		switch {
		case anyPtr:
			return vPtr
		case anyExt:
			return vExt
		case anyAddr:
			return vAddr
		case anyConflict:
			return vConflict
		default:
			return vData
		}
	}

	if in.Hint.A && lmi {
		if !hintAllow[in.Op] {
			diag(KindSpuriousHint, isa.RZ,
				"Activation hint on %s, which is not a pointer-handling opcode", in.Op)
			set(in.Dst, generic())
			return
		}
		po := in.Hint.PointerOperand()
		if in.HasImm && in.Op.ImmSrcIndex() == po {
			diag(KindSpuriousHint, isa.RZ,
				"the S bit selects operand %d, which is an immediate", po)
			set(in.Dst, generic())
			return
		}
		switch pv := get(in.Src[po]); pv {
		case vPtr:
			set(in.Dst, vPtr)
		case vConflict:
			set(in.Dst, vPtr) // unprovable either way; assume the hint is right
		default:
			diag(KindSpuriousHint, in.Src[po],
				"selected pointer operand %s holds %s, not a tagged pointer — the OCU would corrupt it",
				in.Src[po], pv)
			set(in.Dst, pv)
		}
		return
	}

	// Unhinted integer ALU.
	if lmi {
		if anyPtr {
			diag(KindMissingHint, ptrReg,
				"%s manipulates the tagged pointer in %s without an Activation hint — the OCU never checks it",
				in.Op, ptrReg)
		} else if anyExt {
			diag(KindExtentLeak, extReg,
				"extent material in %s flows through untagged %s outside the trusted tagging sequence",
				extReg, in.Op)
		}
	}
	set(in.Dst, generic())
}
