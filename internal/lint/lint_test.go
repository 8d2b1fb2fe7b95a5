package lint

import (
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/core"
	"lmi/internal/ir"
	"lmi/internal/isa"
)

// streamVictim is a bounds-checked copy kernel: branchy enough to
// exercise the join logic, with parameter pointers, GEP arithmetic, and
// a load/store pair.
func streamVictim() *ir.Func {
	b := ir.NewBuilder("lint_stream_victim")
	in := b.Param(ir.PtrGlobal)
	out := b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	g := b.GlobalTID()
	b.If(b.ICmp(isa.CmpLT, g, n), func() {
		v := b.Load(ir.I32, b.GEP(in, g, 4, 0), 0)
		b.Store(b.GEP(out, g, 4, 0), b.Add(v, b.ConstI(ir.I32, 1)), 0)
	}, nil)
	return b.MustFinish()
}

// heapVictim allocates, uses, and frees device heap memory, so its LMI
// lowering contains the full tag/nullify life cycle.
func heapVictim() *ir.Func {
	b := ir.NewBuilder("lint_heap_victim")
	out := b.Param(ir.PtrGlobal)
	g := b.GlobalTID()
	h := b.Malloc(b.ConstI(ir.I32, 256))
	b.Store(b.GEP(h, g, 4, 0), g, 0)
	v := b.Load(ir.I32, b.GEP(h, g, 4, 0), 0)
	b.Store(b.GEP(out, g, 4, 0), v, 0)
	b.Free(h)
	return b.MustFinish()
}

func compileLMI(t *testing.T, f *ir.Func) (*isa.Program, []compiler.SourceLoc) {
	t.Helper()
	p, src, err := compiler.CompileWithSourceMap(f, compiler.ModeLMI)
	if err != nil {
		t.Fatalf("%s: compile: %v", f.Name, err)
	}
	return p, src
}

func hasDiag(diags []Diag, k Kind, instr int) bool {
	for _, d := range diags {
		if d.Kind == k && d.Instr == instr {
			return true
		}
	}
	return false
}

// TestHintDropDetected sweeps chaos's A-hint-drop injection over every
// hinted site of both victims and asserts the linter pins a
// missing-hint diagnostic on the exact tampered instruction, and that
// the differential cross-check independently flags the same site.
func TestHintDropDetected(t *testing.T) {
	for _, f := range []*ir.Func{streamVictim(), heapVictim()} {
		p, src := compileLMI(t, f)
		sites := chaos.HintedSites(p)
		if len(sites) == 0 {
			t.Fatalf("%s: LMI compile carries no hints — victim is useless", f.Name)
		}
		for _, idx := range sites {
			q := chaos.DropHintAt(p, idx)
			diags := Check(q, compiler.ModeLMI)
			if !hasDiag(diags, KindMissingHint, idx) {
				t.Errorf("%s: hint dropped on instr %d (%s): no missing-hint diagnostic there; got %v",
					f.Name, idx, p.Instrs[idx].Op, diags)
			}
			if diags = CheckWithSource(q, compiler.ModeLMI, src); !hasDiag(diags, KindDifferential, idx) {
				t.Errorf("%s: hint dropped on instr %d: differential cross-check silent; got %v",
					f.Name, idx, diags)
			}
		}
	}
}

// TestSpuriousHintDetected sweeps chaos's spurious-A-hint injection
// over every candidate site and asserts a spurious-hint diagnostic on
// the exact tampered instruction.
func TestSpuriousHintDetected(t *testing.T) {
	for _, f := range []*ir.Func{streamVictim(), heapVictim()} {
		p, src := compileLMI(t, f)
		sites := chaos.SpuriousSites(p)
		if len(sites) == 0 {
			t.Fatalf("%s: no spurious-hint candidate sites", f.Name)
		}
		for _, idx := range sites {
			q := chaos.PlantSpuriousHintAt(p, idx)
			diags := Check(q, compiler.ModeLMI)
			if !hasDiag(diags, KindSpuriousHint, idx) {
				t.Errorf("%s: spurious hint planted on instr %d (%s): no spurious-hint diagnostic there; got %v",
					f.Name, idx, p.Instrs[idx].Op, diags)
			}
			if diags = CheckWithSource(q, compiler.ModeLMI, src); !hasDiag(diags, KindDifferential, idx) {
				t.Errorf("%s: spurious hint on instr %d: differential cross-check silent; got %v",
					f.Name, idx, diags)
			}
		}
	}
}

// TestStripNullificationDetected removes the §VIII SHL/SHR
// extent-nullification pair after FREE and asserts the linter reports
// the freed pointer reaching EXIT un-nullified.
func TestStripNullificationDetected(t *testing.T) {
	p, _ := compileLMI(t, heapVictim())
	q := chaos.StripNullification(p)
	if q == nil {
		t.Fatal("heap victim's LMI lowering has no nullification sequence to strip")
	}
	diags := Check(q, compiler.ModeLMI)
	found := false
	for _, d := range diags {
		if d.Kind == KindMissingNullify {
			found = true
			if q.Instrs[d.Instr].Op != isa.EXIT {
				t.Errorf("missing-nullify diagnostic anchored at instr %d (%s), want an EXIT",
					d.Instr, q.Instrs[d.Instr].Op)
			}
		}
	}
	if !found {
		t.Fatalf("nullification stripped but no missing-nullify diagnostic; got %v", diags)
	}

	// A kernel without FREE has nothing to strip.
	ps, _ := compileLMI(t, streamVictim())
	if chaos.StripNullification(ps) != nil {
		t.Error("StripNullification found a nullification sequence in a FREE-less kernel")
	}
}

// TestBaseModeRejectsHints: the base-mode contract is the absence of
// hint bits; a planted hint must be flagged.
func TestBaseModeRejectsHints(t *testing.T) {
	f := streamVictim()
	p, err := compiler.Compile(f, compiler.ModeBase)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sites := chaos.SpuriousSites(p)
	if len(sites) == 0 {
		t.Fatal("no hint-plantable sites in base compile")
	}
	idx := sites[0]
	q := chaos.PlantSpuriousHintAt(p, idx)
	if diags := Check(q, compiler.ModeBase); !hasDiag(diags, KindSpuriousHint, idx) {
		t.Errorf("hint planted in base-mode program at instr %d not flagged; got %v", idx, diags)
	}
}

// handProg wraps a raw instruction sequence in a program with one
// pointer parameter at constant word 80.
func handProg(instrs []isa.Instr) *isa.Program {
	return &isa.Program{
		Name:          "hand",
		Instrs:        instrs,
		NumRegs:       8,
		NumParams:     1,
		ParamPtrs:     []bool{true},
		StackPtrConst: 10,
		ParamBase:     80,
	}
}

// TestPointerStoreBan: storing a tagged pointer to memory violates
// §VI-A and must surface as an extent leak even when the compiler never
// emitted the pattern.
func TestPointerStoreBan(t *testing.T) {
	p := handProg([]isa.Instr{
		{Op: isa.LDC, Dst: 4, Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, Imm: 80, Aux: 3, Pred: isa.PT},
		{Op: isa.STG, Dst: isa.RZ, Src: [3]isa.Reg{4, 4, isa.RZ}, Aux: 3, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Pred: isa.PT},
	})
	diags := Check(p, compiler.ModeLMI)
	if !hasDiag(diags, KindExtentLeak, 1) {
		t.Fatalf("pointer store not flagged as extent leak; got %v", diags)
	}
	if hasDiag(diags, KindUntracedAddress, 1) {
		t.Fatalf("store address is a traced parameter pointer, yet flagged; got %v", diags)
	}
}

// TestUntracedAddress: a load through a register holding plain data is
// not traceable to any tagged allocation.
func TestUntracedAddress(t *testing.T) {
	p := handProg([]isa.Instr{
		{Op: isa.MOV, Dst: 4, Imm: 16, HasImm: true, Pred: isa.PT},
		{Op: isa.LDG, Dst: 5, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Aux: 2, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Pred: isa.PT},
	})
	if diags := Check(p, compiler.ModeLMI); !hasDiag(diags, KindUntracedAddress, 1) {
		t.Fatalf("load through a data register not flagged; got %v", diags)
	}
}

// TestExtentLeakThroughArith: extent material produced by the trusted
// SHL-#59 step must not flow into ordinary arithmetic.
func TestExtentLeakThroughArith(t *testing.T) {
	p := handProg([]isa.Instr{
		{Op: isa.MOV, Dst: 4, Imm: 3, HasImm: true, Pred: isa.PT},
		{Op: isa.SHL, Dst: 4, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Imm: int32(core.ExtentShift), HasImm: true, Aux: isa.AuxW64, Pred: isa.PT},
		{Op: isa.IADD, Dst: 5, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Imm: 1, HasImm: true, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Pred: isa.PT},
	})
	diags := Check(p, compiler.ModeLMI)
	if hasDiag(diags, KindExtentLeak, 1) {
		t.Fatalf("trusted tagging SHL itself flagged; got %v", diags)
	}
	if !hasDiag(diags, KindExtentLeak, 2) {
		t.Fatalf("extent material through untagged IADD not flagged; got %v", diags)
	}
}

// TestFreeContract: freeing a non-pointer is untraced, and the freed
// register reaching EXIT without nullification is a §VIII violation.
func TestFreeContract(t *testing.T) {
	p := handProg([]isa.Instr{
		{Op: isa.MOV, Dst: 4, Imm: 8, HasImm: true, Pred: isa.PT},
		{Op: isa.FREE, Dst: isa.RZ, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Pred: isa.PT},
	})
	diags := Check(p, compiler.ModeLMI)
	if !hasDiag(diags, KindUntracedAddress, 1) {
		t.Errorf("FREE of a data register not flagged; got %v", diags)
	}
	if !hasDiag(diags, KindMissingNullify, 2) {
		t.Errorf("freed pointer reaching EXIT not flagged; got %v", diags)
	}
}

// TestSourceMapLengthMismatch: a source map that no longer lines up
// with the program (rewritten after compilation) is itself a
// differential diagnostic, not a silent skip.
func TestSourceMapLengthMismatch(t *testing.T) {
	p, src := compileLMI(t, streamVictim())
	diags := CheckWithSource(p, compiler.ModeLMI, src[:len(src)-1])
	if len(diags) == 0 || diags[len(diags)-1].Kind != KindDifferential {
		t.Fatalf("truncated source map not reported; got %v", diags)
	}
}

// predicatedExitProg retires lanes 0..15 with a predicated EXIT; the
// rest run on into an elided load through a plain data register.
func predicatedExitProg() *isa.Program {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	return handProg([]isa.Instr{
		{Op: isa.S2R, Dst: 0, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT},
		{Op: isa.SETP, Dst: 0, Src: [3]isa.Reg{0, isa.RZ, isa.RZ}, Imm: 16, HasImm: true,
			Aux: uint8(isa.CmpLT), Pred: isa.PT},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: 0},
		{Op: isa.MOV, Dst: 4, Src: rz, Imm: 16, HasImm: true, Pred: isa.PT},
		{Op: isa.LDG, Dst: 5, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Aux: 2, Pred: isa.PT,
			Hint: isa.Hint{E: true}},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	})
}

// TestCheckSeesPastPredicatedExit: a predicated EXIT retires only its
// guard-true lanes, so the code after it is reachable and checked.
func TestCheckSeesPastPredicatedExit(t *testing.T) {
	diags := Check(predicatedExitProg(), compiler.ModeLMI)
	if !hasDiag(diags, KindUntracedAddress, 4) {
		t.Fatalf("load after @P0 EXIT not checked; got %v", diags)
	}
}

// TestElideAuditSeesPastPredicatedExit: the E bit after a predicated
// EXIT is audited like any other.
func TestElideAuditSeesPastPredicatedExit(t *testing.T) {
	diags := ElideAudit(predicatedExitProg(), bounds.Contract{})
	if len(diags) != 1 || !hasDiag(diags, KindUnsoundElide, 4) {
		t.Fatalf("want one unsound-elide at instr 4 after @P0 EXIT; got %v", diags)
	}
}
