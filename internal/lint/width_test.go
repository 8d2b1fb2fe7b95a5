package lint

import (
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/peval"
)

// TestElideThroughRZ: an E-hinted load addressed through the zero
// register holds no pointer. The audit must reject it with exactly one
// "cannot be traced" diagnostic, without indexing a slot for RZ.
func TestElideThroughRZ(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	p := &isa.Program{NumRegs: 8, Instrs: []isa.Instr{
		{Op: isa.LDG, Dst: 2, Src: rz, Aux: 2, Pred: isa.PT, Hint: isa.Hint{E: true}},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	}}
	diags := ElideAudit(p, bounds.Contract{CountParam: -1, BlockDimX: 32, GridDimX: 1})
	want := Diag{Kind: KindUnsoundElide, Instr: 0, Op: "LDG", Reg: isa.RZ,
		Detail: "elided address RZ cannot be traced to a sized allocation (holds unknown)"}
	if len(diags) != 1 || diags[0] != want {
		t.Fatalf("diags = %v, want exactly [%v]", diags, want)
	}
}

// highRegProgram names R200..R204 while declaring NumRegs 8, and is
// never validated: the audits must size their state from the registers
// the instructions name, not from the declared count.
func highRegProgram() *isa.Program {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	return &isa.Program{
		NumRegs: 8, NumParams: 3, ParamPtrs: []bool{true, false, false}, ParamBase: 0x40,
		Instrs: []isa.Instr{
			{Op: isa.LDC, Dst: 200, Src: rz, Imm: 0x40, Aux: 3, Pred: isa.PT},
			{Op: isa.MOV, Dst: 201, Src: rz, Imm: 8, HasImm: true, Pred: isa.PT},
			{Op: isa.IADD, Dst: 202, Src: [3]isa.Reg{201, 201, isa.RZ}, Pred: isa.PT},
			{Op: isa.LDG, Dst: 203, Src: [3]isa.Reg{200, isa.RZ, isa.RZ}, Aux: 2, Pred: isa.PT, Hint: isa.Hint{E: true}},
			{Op: isa.LDG, Dst: 204, Src: [3]isa.Reg{202, isa.RZ, isa.RZ}, Aux: 2, Pred: isa.PT, Hint: isa.Hint{E: true}},
			{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
		},
	}
}

// TestAuditsSizeStateFromProgram runs a never-validated program naming
// R200 with NumRegs 8 through the elide audit, and through the
// specialize audit with an identity certificate and with a one-fold
// certificate (which runs the constant analysis over R201): no panic,
// and the diagnostics the audits have always given.
func TestAuditsSizeStateFromProgram(t *testing.T) {
	p := highRegProgram()
	c := bounds.Contract{CountParam: 2, CountMin: 1, CountMax: 64, PtrBytesPerCount: 4,
		BlockDimX: 32, GridDimX: 1}
	untraced := Diag{Kind: KindUnsoundElide, Instr: 4, Op: "LDG", Reg: 202,
		Detail: "elided address R202 cannot be traced to a sized allocation (holds numeric)"}
	if diags := ElideAudit(p, c); len(diags) != 1 || diags[0] != untraced {
		t.Errorf("ElideAudit: %v, want exactly [%v]", diags, untraced)
	}

	identity := &peval.Certificate{Shape: peval.ShapeOf(c), Contract: c,
		OrigInstrs: len(p.Instrs), ResidualInstrs: len(p.Instrs), Provenance: []int{0, 1, 2, 3, 4, 5}}
	checkSpec := func(name string, residual *isa.Program, cert *peval.Certificate) {
		t.Helper()
		diags := SpecializeAudit(p, residual, cert, c)
		want := append([]Diag{untraced}, Check(residual, compiler.ModeLMI)...)
		if len(diags) != len(want) {
			t.Fatalf("%s: SpecializeAudit: %v, want %v", name, diags, want)
		}
		for i := range diags {
			if diags[i] != want[i] {
				t.Errorf("%s: diag %d = %v, want %v", name, i, diags[i], want[i])
			}
		}
	}
	checkSpec("identity", p, identity)

	fold := peval.Transform{Kind: peval.TFoldImm, PC: 2, Imm: 8}
	residual, _, err := peval.ApplyTransform(highRegProgram(), identity.Provenance, fold)
	if err != nil {
		t.Fatal(err)
	}
	folded := *identity
	folded.Transforms = []peval.Transform{fold}
	checkSpec("fold-imm", residual, &folded)
	forged := peval.Transform{Kind: peval.TFoldImm, PC: 2, Imm: 9}
	forgedResidual, _, err := peval.ApplyTransform(highRegProgram(), identity.Provenance, forged)
	if err != nil {
		t.Fatal(err)
	}
	bad := folded
	bad.Transforms = []peval.Transform{forged}
	badDiags := SpecializeAudit(p, forgedResidual, &bad, c)
	wantBad := Diag{Kind: KindUnsoundSpec, Instr: 2, Op: "IADD", Reg: isa.RZ,
		Detail: "folded operand 9 != proven value 8"}
	if len(badDiags) == 0 || badDiags[0] != wantBad {
		t.Errorf("forged fold-imm: %v, want first %v", badDiags, wantBad)
	}
}
