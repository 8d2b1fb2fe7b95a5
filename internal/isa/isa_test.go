package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeClassification(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		classes := 0
		if op.IsInt() {
			classes++
		}
		if op.IsFloat() {
			classes++
		}
		if op.IsMemory() {
			classes++
		}
		if classes > 1 {
			t.Errorf("%s in multiple unit classes", op)
		}
		if op.String() == "" || strings.HasPrefix(op.String(), "Opcode(") {
			t.Errorf("opcode %d has no name", uint8(op))
		}
	}
	if Opcode(200).Valid() || !strings.HasPrefix(Opcode(200).String(), "Opcode(") {
		t.Error("opcode 200 should be invalid")
	}
	if LDG.MemSpace() != SpaceGlobal || LDS.MemSpace() != SpaceShared ||
		STL.MemSpace() != SpaceLocal || LDC.MemSpace() != SpaceConst ||
		IADD.MemSpace() != SpaceNone {
		t.Error("MemSpace misclassifies")
	}
	if !LDG.IsLoad() || LDG.IsStore() || !STG.IsStore() || STG.IsLoad() {
		t.Error("load/store misclassified")
	}
	if !ATOMG.IsLoad() || !ATOMG.IsStore() {
		t.Error("ATOMG is both load and store")
	}
}

func TestRegAndPredNames(t *testing.T) {
	if RZ.String() != "RZ" || Reg(3).String() != "R3" {
		t.Error("register names")
	}
	if PT.String() != "PT" || PredReg(2).String() != "P2" {
		t.Error("predicate names")
	}
	if SpaceGlobal.String() != "global" || Space(9).String() == "" {
		t.Error("space names")
	}
	if CmpLT.String() != "LT" || CmpNE.String() != "NE" || CmpOp(31).String() == "" {
		t.Error("cmp names")
	}
	if MufuRCP.String() != "RCP" || MufuFn(31).String() == "" {
		t.Error("mufu names")
	}
	if SRTidX.String() != "SR_TID.X" || SReg(31).String() == "" {
		t.Error("sreg names")
	}
}

func TestHintPointerOperand(t *testing.T) {
	if (Hint{A: true, S: false}).PointerOperand() != 0 {
		t.Error("S=0 must select operand 0")
	}
	if (Hint{A: true, S: true}).PointerOperand() != 1 {
		t.Error("S=1 must select operand 1")
	}
}

func TestInstrValidate(t *testing.T) {
	good := Instr{Op: IADD, Dst: 2, Src: [3]Reg{1, RZ, RZ}, Imm: 4, HasImm: true, Pred: PT}
	if err := good.Validate(); err != nil {
		t.Fatalf("good instr rejected: %v", err)
	}
	bad := []Instr{
		{Op: numOpcodes, Pred: PT},
		{Op: IADD, Pred: 9},
		{Op: BRA, Target: -1, Pred: PT},
		{Op: LDG, Aux: 5, Pred: PT}, // 32-byte access
		{Op: FADD, Hint: Hint{A: true}, Pred: PT},
		{Op: IADD, Aux: 32, Pred: PT},
		{Op: SETP, Dst: Reg(PT), Pred: PT}, // PT is hardwired true
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad[%d] accepted: %+v", i, in)
		}
	}
}

func TestMicrocodeHintBitPositions(t *testing.T) {
	// The hint bits must land at exactly bits 28 (A) and 27 (S) of the
	// microcode word, inside the 14-bit reserved field (Fig. 9).
	in := Instr{Op: IADD, Dst: 1, Src: [3]Reg{2, RZ, RZ}, HasImm: true, Imm: 8,
		Pred: PT, Hint: Hint{A: true, S: true}}
	w, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	if w.Lo>>28&1 != 1 {
		t.Error("A hint not at bit 28")
	}
	if w.Lo>>27&1 != 1 {
		t.Error("S hint not at bit 27")
	}
	if reservedMask>>21&1 != 1 || reservedMask>>34&1 != 1 || reservedMask>>35&1 != 0 {
		t.Error("reserved field is not Lo[34:21]")
	}
	// Without hints, the entire reserved field is zero.
	in.Hint = Hint{}
	w, err = Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	if w.Lo&reservedMask != 0 {
		t.Errorf("reserved bits leaked: %#x", w.Lo&reservedMask)
	}
}

func TestMicrocodeElideBit(t *testing.T) {
	// The E hint must land at exactly bit 29, inside the reserved field,
	// and round-trip through encode/decode on every checkable memory op.
	for _, op := range []Opcode{LDG, STG, LDL, STL, ATOMG} {
		in := Instr{Op: op, Dst: 1, Src: [3]Reg{2, 3, RZ}, Aux: 2, Pred: PT,
			Hint: Hint{E: true}}
		if op.IsStore() {
			in.Dst = RZ
		}
		w, err := Encode(&in)
		if err != nil {
			t.Fatalf("%s: encode: %v", op, err)
		}
		if w.Lo>>HintBitE&1 != 1 {
			t.Errorf("%s: E hint not at bit %d", op, HintBitE)
		}
		if w.Lo&reservedMask&^hintMask != 0 {
			t.Errorf("%s: E hint leaked outside the hint mask", op)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("%s: decode: %v", op, err)
		}
		if !out.Hint.E || out != in {
			t.Errorf("%s: E round trip mismatch:\n in=%+v\nout=%+v", op, in, out)
		}
	}
	// E is illegal outside LDG/STG/LDL/STL/ATOMG: shared and constant
	// accesses have no extent check to elide, and ALU ops have no check
	// at all.
	for _, op := range []Opcode{LDS, STS, LDC, ATOMS, IADD, MOV} {
		in := Instr{Op: op, Dst: 1, Src: [3]Reg{2, 3, RZ}, Aux: 2, Pred: PT,
			Hint: Hint{E: true}}
		if err := in.Validate(); err == nil {
			t.Errorf("%s: elide hint accepted", op)
		}
	}
	// Disassembly surfaces the bit.
	in := Instr{Op: LDG, Dst: 1, Src: [3]Reg{2, RZ, RZ}, Aux: 2, Pred: PT,
		Hint: Hint{E: true}}
	if s := in.String(); !strings.Contains(s, "[E]") {
		t.Errorf("disassembly missing [E]: %q", s)
	}
	p := &Program{Name: "e", Instrs: []Instr{
		in,
		{Op: EXIT, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}},
	}}
	if p.CountElided() != 1 {
		t.Errorf("CountElided = %d", p.CountElided())
	}
}

func TestDecodeRejectsReservedBits(t *testing.T) {
	in := Instr{Op: MOV, Dst: 1, HasImm: true, Imm: 5, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}}
	w, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	w.Lo |= 1 << 30 // a reserved, non-hint bit
	if _, err := Decode(w); err == nil {
		t.Error("word with stray reserved bit decoded")
	}
}

func TestEncodeRejectsHugeTarget(t *testing.T) {
	in := Instr{Op: BRA, Target: 1 << 24, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}}
	if _, err := Encode(&in); err == nil {
		t.Error("24-bit target overflow accepted")
	}
}

func randomInstr(r *rand.Rand) Instr {
	ops := []Opcode{IADD, IADD3, IMUL, IMAD, SHL, AND, XOR, MOV, SETP, SEL,
		FADD, FMUL, FFMA, MUFU, LDG, STG, LDS, STS, LDL, STL, LDC,
		BRA, SSY, SYNC, BAR, EXIT, S2R, MALLOC, FREE, TRAP, NOP, ATOMG}
	op := ops[r.Intn(len(ops))]
	in := Instr{
		Op:      op,
		Dst:     Reg(r.Intn(256)),
		Src:     [3]Reg{Reg(r.Intn(256)), Reg(r.Intn(256)), Reg(r.Intn(256))},
		Imm:     int32(r.Uint32()),
		HasImm:  r.Intn(2) == 0,
		Pred:    PredReg(r.Intn(8)),
		PredNeg: r.Intn(2) == 0,
		Target:  int32(r.Intn(1 << 20)),
		Ctl:     uint8(r.Intn(256)),
	}
	switch {
	case op.IsMemory() && op != MALLOC && op != FREE:
		in.Aux = uint8([]int{0, 1, 2, 3}[r.Intn(4)]) // 1..8 byte accesses
	case op == SETP || op == FSETP:
		in.Aux = uint8(r.Intn(6))
	case op == MUFU:
		in.Aux = uint8(r.Intn(5))
	case op == S2R:
		in.Aux = uint8(r.Intn(7))
	default:
		in.Aux = uint8(r.Intn(32))
	}
	if op.IsInt() {
		in.Hint = Hint{A: r.Intn(2) == 0, S: r.Intn(2) == 0}
	}
	if op == LDG || op == STG || op == LDL || op == STL {
		in.Hint.E = r.Intn(2) == 0
	}
	return in
}

// Property: encode/decode round-trips every valid instruction exactly.
func TestPropertyMicrocodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		in := randomInstr(r)
		if in.Validate() != nil {
			continue
		}
		w, err := Encode(&in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		out, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %+v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	}
}

// Property: all immediates round-trip including negative ones.
func TestPropertyImmediateRoundTrip(t *testing.T) {
	f := func(imm int32) bool {
		in := Instr{Op: MOV, Dst: 1, HasImm: true, Imm: imm, Pred: PT,
			Src: [3]Reg{RZ, RZ, RZ}}
		w, err := Encode(&in)
		if err != nil {
			return false
		}
		out, err := Decode(w)
		return err == nil && out.Imm == imm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestProgramValidateAndDisassemble(t *testing.T) {
	p := &Program{
		Name: "demo",
		Instrs: []Instr{
			{Op: S2R, Dst: 0, Aux: uint8(SRTidX), Pred: PT, Src: [3]Reg{RZ, RZ, RZ}},
			{Op: IADD, Dst: 1, Src: [3]Reg{0, RZ, RZ}, HasImm: true, Imm: 16, Pred: PT,
				Hint: Hint{A: true}},
			{Op: LDG, Dst: 2, Src: [3]Reg{1, RZ, RZ}, Aux: 2, Pred: PT},
			{Op: STG, Src: [3]Reg{1, 2, RZ}, Aux: 2, Imm: 4, Pred: PT},
			{Op: SETP, Dst: Reg(1), Src: [3]Reg{2, RZ, RZ}, HasImm: true, Imm: 10,
				Aux: uint8(CmpLT), Pred: PT},
			{Op: BRA, Target: 6, Pred: 1, PredNeg: true, Src: [3]Reg{RZ, RZ, RZ}},
			{Op: EXIT, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}},
		},
		NumRegs: 3,
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	dis := p.Disassemble()
	for _, want := range []string{"S2R R0, SR_TID.X", "[A S=0]", "LDG.32 R2, [R1+0]",
		"STG.32 [R1+4], R2", "SETP.LT P1", "@!P1 BRA 6", "EXIT"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
	if p.CountHinted() != 1 {
		t.Errorf("CountHinted = %d", p.CountHinted())
	}
	words, err := EncodeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != p.Instrs[i] {
			t.Errorf("program round trip mismatch at %d", i)
		}
	}

	// Programs must end with EXIT.
	bad := &Program{Name: "bad", Instrs: []Instr{{Op: NOP, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}}}}
	if err := bad.Validate(); err == nil {
		t.Error("program without EXIT accepted")
	}
	// Out-of-range branch target.
	bad2 := &Program{Name: "bad2", Instrs: []Instr{
		{Op: BRA, Target: 99, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}},
		{Op: EXIT, Pred: PT, Src: [3]Reg{RZ, RZ, RZ}},
	}}
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range branch accepted")
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: MUFU, Dst: 1, Src: [3]Reg{2, RZ, RZ}, Aux: uint8(MufuSQRT), Pred: PT}, "MUFU.SQRT R1, R2"},
		{Instr{Op: BAR, Target: 0, Pred: PT}, "BAR.SYNC 0"},
		{Instr{Op: MALLOC, Dst: 3, Src: [3]Reg{4, RZ, RZ}, Pred: PT}, "MALLOC R3, R4"},
		{Instr{Op: FREE, Src: [3]Reg{3, RZ, RZ}, Pred: PT}, "FREE R3"},
		{Instr{Op: TRAP, Imm: 2, Pred: PT}, "TRAP 2"},
		{Instr{Op: ATOMG, Dst: 1, Src: [3]Reg{2, 3, RZ}, Aux: 2, Pred: PT}, "ATOMG.ADD.32 R1, [R2+0], R3"},
		{Instr{Op: IADD3, Dst: 1, Src: [3]Reg{1, 2, RZ}, HasImm: true, Imm: -96, Pred: PT}, "IADD3 R1, R1, R2"},
	}
	for _, tc := range cases {
		if got := tc.in.String(); !strings.Contains(got, tc.want) {
			t.Errorf("String() = %q, want containing %q", got, tc.want)
		}
	}
}
