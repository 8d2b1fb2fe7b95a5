package lint

import (
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/isa"
	"lmi/internal/workloads"
)

// TestElideAuditPlacements pins the elide audit's verdicts on E-hinted
// accesses where the abstract state is not a run head's entry: in the
// middle of a loop body, right after a predicated non-branch (whose
// inactive lanes keep the old value), and on a predicated BRA's
// fall-through. Every expected diagnostic is derived by hand from the
// contract: parameter #0 holds at least 4*32 = 128 bytes, so an access
// is provable while its offset plus 4 stays at or below 128.
func TestElideAuditPlacements(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	c := bounds.Contract{CountParam: 1, CountMin: 32, CountMax: 64, PtrBytesPerCount: 4,
		BlockDimX: 32, GridDimX: 1}
	ptr := func(dst isa.Reg) isa.Instr { // parameter #0, a tagged pointer
		return isa.Instr{Op: isa.LDC, Dst: dst, Src: rz, Imm: 0x40, Aux: 3, Pred: isa.PT}
	}
	tid := func(dst isa.Reg) isa.Instr { // [0, 31]
		return isa.Instr{Op: isa.S2R, Dst: dst, Src: rz, Aux: uint8(isa.SRTidX), Pred: isa.PT}
	}
	mov := func(dst isa.Reg, imm int32) isa.Instr {
		return isa.Instr{Op: isa.MOV, Dst: dst, Src: rz, Imm: imm, HasImm: true, Pred: isa.PT}
	}
	shl2 := func(dst, src isa.Reg) isa.Instr {
		return isa.Instr{Op: isa.SHL, Dst: dst, Src: [3]isa.Reg{src, isa.RZ, isa.RZ}, Imm: 2, HasImm: true, Pred: isa.PT}
	}
	add64 := func(dst, a, b isa.Reg) isa.Instr {
		return isa.Instr{Op: isa.IADD, Dst: dst, Src: [3]isa.Reg{a, b, isa.RZ}, Aux: isa.AuxW64, Pred: isa.PT}
	}
	setpLT := func(pd, src isa.Reg, imm int32) isa.Instr {
		return isa.Instr{Op: isa.SETP, Dst: pd, Src: [3]isa.Reg{src, isa.RZ, isa.RZ}, Imm: imm, HasImm: true,
			Aux: uint8(isa.CmpLT), Pred: isa.PT}
	}
	bra := func(pred isa.PredReg, neg bool, target int32) isa.Instr {
		return isa.Instr{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: target, Pred: pred, PredNeg: neg}
	}
	ldgE := func(dst, addr isa.Reg, imm int32) isa.Instr {
		return isa.Instr{Op: isa.LDG, Dst: dst, Src: [3]isa.Reg{addr, isa.RZ, isa.RZ}, Imm: imm, Aux: 2,
			Pred: isa.PT, Hint: isa.Hint{E: true}}
	}
	exit := isa.Instr{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT}
	on := func(pred isa.PredReg, in isa.Instr) isa.Instr { in.Pred = pred; return in }
	beyond := func(pc int, addr isa.Reg, detail string) Diag {
		return Diag{Kind: KindUnsoundElide, Instr: pc, Op: "LDG", Reg: addr, Detail: detail}
	}

	for _, tc := range []struct {
		name   string
		instrs []isa.Instr
		want   []Diag
	}{
		{
			// i runs 0..30: the widened loop counter is bounded again on
			// the body's edge, so [R3] ends at 120+4 and [R3+8] at 128+4.
			name: "loop body mid-run",
			instrs: []isa.Instr{
				ptr(0),
				mov(1, 0),
				setpLT(0, 1, 31), // 2: loop head
				bra(0, true, 10),
				shl2(2, 1), // 4: body, entered from the BRA
				add64(3, 0, 2),
				ldgE(4, 3, 0),
				ldgE(5, 3, 8),
				{Op: isa.IADD, Dst: 1, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Imm: 1, HasImm: true, Pred: isa.PT},
				bra(isa.PT, false, 2),
				exit,
			},
			want: []Diag{beyond(7, 3,
				"elided access at offset <= 128 + 4B not provably within parameter #0's 4-byte-per-count buffer")},
		},
		{
			// A guarded write moves the pointer into bounds only for its
			// active lanes; the others keep the out-of-bounds value.
			name: "after a predicated non-branch",
			instrs: []isa.Instr{
				ptr(0),
				tid(1),
				setpLT(0, 1, 16),
				mov(2, 256),
				add64(3, 0, 2),
				on(0, add64(3, 0, isa.RZ)),
				ldgE(4, 3, 0), // 6: offset 0 or 256
				mov(5, 64),
				add64(6, 0, 5),
				on(0, add64(6, 0, isa.RZ)),
				ldgE(7, 6, 0), // 10: offset 0 or 64
				exit,
			},
			want: []Diag{beyond(6, 3,
				"elided access at offset <= 256 + 4B not provably within parameter #0's 4-byte-per-count buffer")},
		},
		{
			// The fall-through starts its own run from the branch's
			// refined edge state; the pointer itself is not refined.
			name: "on a BRA's fall-through",
			instrs: []isa.Instr{
				ptr(0),
				tid(1),
				shl2(2, 1),
				add64(3, 0, 2), // offset [0, 124]
				setpLT(0, 1, 16),
				bra(0, false, 8),
				ldgE(4, 3, 4), // 6: fall-through
				exit,
				ldgE(5, 3, 0), // 8: taken
				exit,
			},
			want: []Diag{beyond(6, 3,
				"elided access at offset <= 128 + 4B not provably within parameter #0's 4-byte-per-count buffer")},
		},
	} {
		p := &isa.Program{NumRegs: 8, NumParams: 2, ParamPtrs: []bool{true, false}, ParamBase: 0x40,
			Instrs: tc.instrs}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := ElideAudit(p, c)
		if len(got) != len(tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: diag %d = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestElideAuditResidualAllocation bounds what one elide audit of
// gaussian's residual allocates. The residual is one straight-line run
// of 1261 instructions over 145 registers, so a full abstract state per
// instruction would take about 13 MB; states kept at run heads take a
// small fraction of that.
func TestElideAuditResidualAllocation(t *testing.T) {
	s := workloads.ByName("gaussian")
	res, err := s.Specialized()
	if err != nil {
		t.Fatal(err)
	}
	c := s.ConcreteContract()
	if diags := ElideAudit(res.Residual, c); len(diags) != 0 {
		t.Fatalf("residual audits unclean: %v", diags)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			ElideAudit(res.Residual, c)
		}
	})
	const limit = 2 << 20
	if got := r.AllocedBytesPerOp(); got >= limit {
		t.Errorf("one ElideAudit of gaussian's residual allocates %d bytes, want under %d", got, limit)
	}
}
