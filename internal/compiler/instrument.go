package compiler

import (
	"lmi/internal/core"
	"lmi/internal/isa"
)

// TrapSpatial is the TRAP immediate raised by software bounds checks.
const TrapSpatial = 1

// instrPred is the predicate register reserved for instrumentation
// sequences (the register allocator hands out P0..P5 only).
const instrPred = isa.PredReg(6)

// rewrite expands a program by inserting instruction sequences before and
// after selected instructions, remapping all branch/SSY targets so control
// transfers land at the start of an instruction's inserted prologue.
func rewrite(p *isa.Program, visit func(in *isa.Instr) (before, after []isa.Instr)) *isa.Program {
	q := *p
	q.Instrs = isa.Rewrite(p.Instrs, func(out []isa.Instr, i int) []isa.Instr {
		in := p.Instrs[i]
		before, after := visit(&in)
		out = append(out, before...)
		out = append(out, in)
		return append(out, after...)
	})
	return &q
}

func pt(in isa.Instr) isa.Instr {
	in.Pred = isa.PT
	if in.Src == ([3]isa.Reg{}) {
		in.Src = [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	}
	return in
}

// InstrumentBaggy implements the software Baggy Bounds baseline (§X-A):
// "We evaluate Baggy Bounds by injecting bounds-checking SASS instructions
// after each pointer operation." The input program must be compiled under
// ModeLMI (so allocations are 2^n-aligned, pointers are tagged, and the A/S
// hints mark the pointer operations); the inserted sequence performs in
// software exactly the check LMI's OCU performs in hardware:
//
//	MOV  T2, <ptr-in>        (saved before the operation)
//	XOR  T0, T2, <out>       changed bits
//	SHR  T1, T2, #59         extent
//	IADD T1, T1, #7          log2(size class)
//	SHR  T0, T0, T1          keep changes above the modifiable field
//	SETP.NE P6, T0, RZ
//	@P6 TRAP #spatial
//
// Seven dynamic instructions per pointer operation, with no metadata
// memory access (the 64-bit variant of Baggy Bounds, per the paper's
// Table II footnote).
func InstrumentBaggy(p *isa.Program) *isa.Program {
	return rewrite(p, func(in *isa.Instr) ([]isa.Instr, []isa.Instr) {
		if !in.Hint.A {
			return nil, nil
		}
		src := in.Src[in.Hint.PointerOperand()]
		out := in.Dst
		before := []isa.Instr{
			pt(isa.Instr{Op: isa.MOV, Dst: regTmp2, Aux: isa.AuxW64,
				Src: [3]isa.Reg{src, isa.RZ, isa.RZ}}),
		}
		after := []isa.Instr{
			pt(isa.Instr{Op: isa.XOR, Dst: regTmp0, Aux: isa.AuxW64,
				Src: [3]isa.Reg{regTmp2, out, isa.RZ}}),
			pt(isa.Instr{Op: isa.SHR, Dst: regTmp1, Aux: isa.AuxW64,
				Src:    [3]isa.Reg{regTmp2, isa.RZ, isa.RZ},
				HasImm: true, Imm: int32(core.ExtentShift)}),
			pt(isa.Instr{Op: isa.IADD, Dst: regTmp1, Aux: isa.AuxW64,
				Src:    [3]isa.Reg{regTmp1, isa.RZ, isa.RZ},
				HasImm: true, Imm: int32(core.DefaultMinShift - 1)}),
			pt(isa.Instr{Op: isa.SHR, Dst: regTmp0, Aux: isa.AuxW64,
				Src: [3]isa.Reg{regTmp0, regTmp1, isa.RZ}}),
			pt(isa.Instr{Op: isa.SETP, Dst: isa.Reg(instrPred), Aux: uint8(isa.CmpNE),
				Src: [3]isa.Reg{regTmp0, isa.RZ, isa.RZ}}),
			{Op: isa.TRAP, Imm: TrapSpatial, Pred: instrPred,
				Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}},
		}
		// The A hint has been consumed by the software check; clear it so
		// the program runs on baseline hardware (no OCU).
		in.Hint = isa.Hint{}
		return before, after
	})
}

// DBIOptions sizes the dynamic-binary-instrumentation cost model.
type DBIOptions struct {
	// SaveRegs is the number of registers spilled to (and reloaded from)
	// thread-local memory around each injected call, modelling the NVBit
	// trampoline's register save/restore.
	SaveRegs int
	// CheckALU is the number of ALU instructions in the injected
	// bounds-checking function body.
	CheckALU int
	// ShadowLoads is the number of global-memory reads of checker
	// metadata per injected call (allocation-table lookups).
	ShadowLoads int
	// CheckIntALU selects whether integer ALU instructions are
	// instrumented in addition to loads/stores. The LMI DBI
	// implementation must conservatively check pointer-producing
	// arithmetic, which is why its check count far exceeds the LD/ST
	// count (the paper reports check/LDST ratios of 67.1 for gaussian and
	// 28.1 for swin); memcheck confines itself to memory instructions.
	CheckIntALU bool
}

// LMIDBIOptions models the paper's NVBit-based LMI implementation (§X-B).
var LMIDBIOptions = DBIOptions{SaveRegs: 15, CheckALU: 31, ShadowLoads: 0, CheckIntALU: true}

// MemcheckOptions models Compute Sanitizer's memcheck tool (§X-B): a
// tripwire checker confined to LD/ST instructions, with allocation-table
// lookups in memory.
var MemcheckOptions = DBIOptions{SaveRegs: 29, CheckALU: 55, ShadowLoads: 2, CheckIntALU: false}

// dbiScratchLocal is the thread-local byte offset of the trampoline's
// register-save area (below the stack frame).
const dbiScratchLocal = 0x100

// dbiShadowBase is the global address of the checker's allocation table.
const dbiShadowBase = 0x0F00_0000

// InstrumentDBI splices a dynamic-binary-instrumentation call sequence
// around every instrumented instruction. The sequence is semantically a
// no-op (it touches only scratch registers and scratch memory) but its
// cost — register spills to local memory, checker ALU work, and shadow
// table loads — is executed cycle by cycle by the simulator, reproducing
// how DBI overhead is dominated by the injected instructions rather than
// JIT compilation (§XI-B).
func InstrumentDBI(p *isa.Program, opts DBIOptions) *isa.Program {
	return rewrite(p, func(in *isa.Instr) ([]isa.Instr, []isa.Instr) {
		instrumented := in.Op.IsMemory() && in.Op != isa.MALLOC && in.Op != isa.FREE
		if opts.CheckIntALU && in.Op.IsInt() {
			instrumented = true
		}
		if !instrumented {
			return nil, nil
		}
		var before, after []isa.Instr
		for i := 0; i < opts.SaveRegs; i++ {
			before = append(before, pt(isa.Instr{Op: isa.STL, Dst: isa.RZ,
				Src: [3]isa.Reg{isa.RZ, regTmp0, isa.RZ},
				Imm: int32(dbiScratchLocal + 8*i), Aux: 3}))
			after = append(after, pt(isa.Instr{Op: isa.LDL, Dst: regTmp0,
				Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ},
				Imm: int32(dbiScratchLocal + 8*i), Aux: 3}))
		}
		for i := 0; i < opts.ShadowLoads; i++ {
			before = append(before,
				pt(isa.Instr{Op: isa.MOV, Dst: regTmp1, HasImm: true,
					Imm: int32(dbiShadowBase + 64*i)}),
				pt(isa.Instr{Op: isa.LDG, Dst: regTmp1,
					Src: [3]isa.Reg{regTmp1, isa.RZ, isa.RZ}, Aux: 3}))
		}
		for i := 0; i < opts.CheckALU; i++ {
			op := isa.XOR
			if i%3 == 1 {
				op = isa.IADD
			} else if i%3 == 2 {
				op = isa.AND
			}
			before = append(before, pt(isa.Instr{Op: op, Dst: regTmp0, Aux: isa.AuxW64,
				Src: [3]isa.Reg{regTmp0, regTmp1, isa.RZ}}))
		}
		// The checker's verdict: compare and (never, in a correct run)
		// trap.
		before = append(before,
			pt(isa.Instr{Op: isa.SETP, Dst: isa.Reg(instrPred), Aux: uint8(isa.CmpNE),
				Src: [3]isa.Reg{regTmp0, regTmp0, isa.RZ}}),
			isa.Instr{Op: isa.TRAP, Imm: TrapSpatial, Pred: instrPred,
				Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}})
		return before, after
	})
}

// CheckInstructionCounts reports the static number of instrumented checks
// and memory instructions in a program — the check/LDST ratio the paper
// uses to explain DBI performance variability (§XI-B).
func CheckInstructionCounts(p *isa.Program) (checks, ldst int) {
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.IsMemory() && in.Op != isa.MALLOC && in.Op != isa.FREE {
			ldst++
		}
		if in.Hint.A {
			checks++
		}
	}
	return checks, ldst
}
