package compiler

import (
	"fmt"

	"lmi/internal/bounds"
	"lmi/internal/ir"
	"lmi/internal/isa"
)

// CompileElidedWithSourceMap compiles a kernel under ModeLMI with static
// extent-check elision and returns its source map, which static analyses
// (the lint elide audit) use to re-derive the hint placement. The bounds
// analysis classifies every checkable access under the launch contract,
// a proven-out-of-bounds access aborts compilation with a positioned
// diagnostic, and every access Elides accepts gets the E microcode hint
// so the LSU skips its extent check.
//
// Plain Compile/CompileWithSourceMap are deliberately untouched: callers
// that need byte-identical unelided programs (chaos victims, the
// baseline variants) keep getting them.
func CompileElidedWithSourceMap(f *ir.Func, c bounds.Contract) (*isa.Program, []SourceLoc, *bounds.Result, error) {
	res, err := bounds.Analyze(f, c)
	if err != nil {
		return nil, nil, nil, err
	}
	if oob := res.OOB(); len(oob) > 0 {
		// Report the first proven-out-of-bounds access as a compile-time
		// error, positioned at its IR instruction — before any simulation.
		return nil, nil, res, &bounds.OOBError{Func: f.Name, Access: oob[0]}
	}
	p, src, err := CompileWithSourceMap(f, ModeLMI)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range p.Instrs {
		if Elides(p.Instrs[i].Op, src[i], res) {
			p.Instrs[i].Hint.E = true
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("compiler: elided program invalid: %w", err)
	}
	return p, src, res, nil
}

// Elides reports whether an instruction of opcode op lowered from the IR
// instruction at loc carries the E hint under the analysis res: it is an
// extent-checked access (LDG/STG/LDL/STL/ATOMG) whose IR access res
// proves in bounds. (ATOMS is shared-memory and never extent-checked, so
// it carries no hint — parity with STS.)
func Elides(op isa.Opcode, loc SourceLoc, res *bounds.Result) bool {
	switch op {
	case isa.LDG, isa.STG, isa.LDL, isa.STL, isa.ATOMG:
		// OpLoad/OpStore/OpAtomicAdd lower to exactly one memory
		// instruction, so the (block, index) provenance identifies the
		// access uniquely.
		return loc.Block >= 0 && res.Proven(loc.Block, loc.Index)
	}
	return false
}
