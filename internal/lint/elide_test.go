package lint

import (
	"math"
	"testing"

	"lmi/internal/bounds"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/workloads"
)

// TestElideAuditCleanOnWorkloads is the audit's positive corpus: every
// Table V workload compiled with elision carries at least one E bit, and
// the audit — re-deriving in-bounds-ness from its own register-level
// value analysis, independent of the compiler's IR-level proof — must
// justify every one of them.
func TestElideAuditCleanOnWorkloads(t *testing.T) {
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		p, _, _, err := compiler.CompileElidedWithSourceMap(f, s.Contract())
		if err != nil {
			t.Fatalf("%s: elided compile: %v", s.Name, err)
		}
		if p.CountElided() == 0 {
			t.Errorf("%s: elided compile set no E bits", s.Name)
			continue
		}
		if diags := ElideAudit(p, s.Contract()); len(diags) != 0 {
			t.Errorf("%s: audit rejects the compiler's own elisions (%d):", s.Name, len(diags))
			for _, d := range diags {
				t.Errorf("  %s", d)
			}
		}
	}
}

// TestFreeWithoutProvenanceClearsHeapFacts covers the laundered-free
// hole: a pointer stored to memory and reloaded audits as ekTop, so a
// FREE through it names no site — every heap fact must die anyway, or a
// register still holding the freed allocation would keep auditing a
// stale elide as sound. A traced FREE stays precise: only the named
// site dies.
func TestFreeWithoutProvenanceClearsHeapFacts(t *testing.T) {
	p := &isa.Program{Instrs: []isa.Instr{{Op: isa.FREE, Src: [3]isa.Reg{5, isa.RZ, isa.RZ}}}}
	a := &auditor{p: p}
	heapAt := func(site int) eVal {
		return eVal{kind: ekHeap, iv: ivConst(0), sym: symConstUB(0), site: site, bytes: 64}
	}
	reset := func(st *eState) {
		for r := range st.regs {
			st.regs[r] = evTop()
		}
	}

	var st eState
	reset(&st)
	st.regs[4] = heapAt(7)
	st.regs[6] = heapAt(9)
	a.transfer(0, &st) // FREE on r5 = ekTop: could be any heap site
	if st.regs[4].kind == ekHeap || st.regs[6].kind == ekHeap {
		t.Errorf("heap facts survived an unprovenanced FREE: r4=%s r6=%s",
			st.regs[4].kind, st.regs[6].kind)
	}

	reset(&st)
	st.regs[5] = heapAt(7)
	st.regs[4] = heapAt(7)
	st.regs[6] = heapAt(9)
	a.transfer(0, &st) // FREE on r5 = heap site 7
	if st.regs[4].kind == ekHeap {
		t.Error("same-site alias survived a traced FREE")
	}
	if st.regs[6].kind != ekHeap {
		t.Error("unrelated heap site killed by a traced FREE")
	}
}

// TestJudgeOverflowRejects pins the audit's accept conditions to
// overflow-checked arithmetic: a crafted program can drive the affine
// denominator toward 2^62 (repeated shifts) and the offset bound to a
// huge finite saturation product, and under unchecked int64 math both
// comparisons wrap into accepting an unsound E bit.
func TestJudgeOverflowRejects(t *testing.T) {
	p := &isa.Program{
		Instrs:       []isa.Instr{{Op: isa.LDG, Dst: 2, Src: [3]isa.Reg{3, isa.RZ, isa.RZ}, Aux: 2}},
		StackBuffers: []isa.StackBuffer{{Offset: 0, Size: 64}},
	}
	a := &auditor{p: p, c: bounds.Contract{
		CountParam: 2, CountMin: 1, CountMax: 1 << 15, PtrBytesPerCount: 4,
	}, countOK: true}
	var st eState
	for r := range st.regs {
		st.regs[r] = evTop()
	}

	// PtrBytesPerCount*D wraps to MinInt64, flipping the coefficient's
	// sign, and C+D*size wraps alongside it: unchecked, lhs <= rhs holds.
	st.regs[3] = eVal{kind: ekParam, site: 0,
		iv:  bounds.Interval{Lo: 0, Hi: 1 << 61},
		sym: bounds.SymUB{OK: true, A: 0, C: 0, D: 1 << 61}}
	if _, ok := a.judge(0, &st); ok {
		t.Error("param judge accepted a symbolic bound whose coefficient arithmetic wraps")
	}

	// off.Hi+size wraps negative, slipping under the allocation size.
	st.regs[3] = eVal{kind: ekHeap, site: 0, bytes: 64,
		iv: bounds.Interval{Lo: 0, Hi: math.MaxInt64 - 1}}
	if _, ok := a.judge(0, &st); ok {
		t.Error("heap judge accepted an offset whose end computation wraps")
	}

	st.regs[3] = eVal{kind: ekStack, site: 0,
		iv: bounds.Interval{Lo: 0, Hi: math.MaxInt64 - 1}}
	if _, ok := a.judge(0, &st); ok {
		t.Error("stack judge accepted an offset whose end computation wraps")
	}
}

// atomicVictim exercises the atomics parity path: a clamped-index global
// ATOMG (provable under a count contract, the workloads' Min(idx, n-1)
// route) plus a shared ATOMS, which carries no extent check and must
// never be an elide candidate.
func atomicVictim() *ir.Func {
	b := ir.NewBuilder("lint_atomic_victim")
	out := b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	gtid := b.GlobalTID()
	one := b.ConstI(ir.I32, 1)
	idx := b.Min(gtid, b.Sub(n, one))
	sh := b.Shared(256)
	b.AtomicAdd(b.GEP(sh, b.And(gtid, b.ConstI(ir.I32, 63)), 4, 0), one, 0)
	b.AtomicAdd(b.GEP(out, idx, 4, 0), one, 0)
	return b.MustFinish()
}

// TestAtomicElideGolden is the atomics-parity golden case: the elided
// compile must prove and elide the contract-bounded global ATOMG exactly
// as it would the equivalent STG, the shared ATOMS must stay hint-free,
// and the audit must justify the planted bit from its own dataflow.
func TestAtomicElideGolden(t *testing.T) {
	f := atomicVictim()
	c := bounds.Contract{CountParam: 1, CountMin: 1, CountMax: 1 << 20,
		PtrBytesPerCount: 4, BlockDimX: 64, GridDimX: 4}
	p, _, _, err := compiler.CompileElidedWithSourceMap(f, c)
	if err != nil {
		t.Fatalf("elided compile: %v", err)
	}
	var atomg, atoms = -1, -1
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case isa.ATOMG:
			atomg = i
		case isa.ATOMS:
			atoms = i
		}
	}
	if atomg < 0 || atoms < 0 {
		t.Fatalf("victim lowering lost its atomics (ATOMG at %d, ATOMS at %d)", atomg, atoms)
	}
	if !p.Instrs[atomg].Hint.E {
		t.Errorf("contract-proven global ATOMG at instr %d not elided", atomg)
	}
	if p.Instrs[atoms].Hint.E {
		t.Errorf("shared ATOMS at instr %d carries an E hint (never extent-checked)", atoms)
	}
	if diags := ElideAudit(p, c); len(diags) != 0 {
		t.Errorf("audit rejects the compiler's atomic elision: %v", diags)
	}
}

// TestAtomicSpuriousElidePinned is the atomics-parity negative case:
// with no count contract nothing justifies an E bit, so a spurious elide
// planted on the ATOMG (now an ElideSites candidate, same as STG) must
// be pinned by the audit, and a plant on the ATOMS must be rejected by
// program validation itself — shared atomics are not checkable.
func TestAtomicSpuriousElidePinned(t *testing.T) {
	p, _ := compileLMI(t, atomicVictim())
	var atomg, atoms = -1, -1
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case isa.ATOMG:
			atomg = i
		case isa.ATOMS:
			atoms = i
		}
	}
	sites := chaos.ElideSites(p)
	foundAtomg := false
	for _, idx := range sites {
		if idx == atomg {
			foundAtomg = true
		}
		if idx == atoms {
			t.Errorf("ElideSites offered the shared ATOMS at instr %d", idx)
		}
	}
	if !foundAtomg {
		t.Fatalf("ElideSites skipped the global ATOMG at instr %d (sites %v)", atomg, sites)
	}
	q := chaos.PlantSpuriousElideAt(p, atomg)
	if !hasDiag(ElideAudit(q, bounds.Contract{}), KindUnsoundElide, atomg) {
		t.Errorf("spurious E on ATOMG at instr %d not pinned", atomg)
	}
	bad := chaos.PlantSpuriousElideAt(p, atoms)
	if err := bad.Validate(); err == nil {
		t.Error("program validation accepted an E hint on ATOMS")
	}
}

// oobVictim mirrors the chaos engine's spatial-violation victim: thread
// 0 stores one word past the 1 KiB buffer while every other thread
// stores in bounds.
func oobVictim() *ir.Func {
	b := ir.NewBuilder("lint_oob_victim")
	out := b.Param(ir.PtrGlobal)
	gtid := b.GlobalTID()
	b.If(b.ICmp(isa.CmpEQ, gtid, b.ConstI(ir.I32, 0)), func() {
		b.Store(b.GEP(out, b.ConstI(ir.I32, 256), 4, 0), b.ConstI(ir.I32, 0x7A), 0)
	}, func() {
		b.Store(b.GEP(out, gtid, 4, 0), gtid, 0)
	})
	return b.Finalize()
}

// TestSpuriousElideAuditPinned is the audit's negative corpus: it
// replays the chaos spurious-elide injection — planting an E bit the
// compiler never emitted — over every memory instruction of the oob
// victim and both lint victims, and requires an unsound-elide
// diagnostic pinned to exactly the tampered instruction. None of these
// programs were compiled under a count contract, so no planted E is
// justifiable.
func TestSpuriousElideAuditPinned(t *testing.T) {
	for _, f := range []*ir.Func{oobVictim(), streamVictim(), heapVictim()} {
		p, _ := compileLMI(t, f)
		if n := p.CountElided(); n != 0 {
			t.Fatalf("%s: plain LMI compile emitted %d E bits", f.Name, n)
		}
		if diags := ElideAudit(p, bounds.Contract{}); len(diags) != 0 {
			t.Fatalf("%s: audit diagnoses a program with no E bits: %v", f.Name, diags)
		}
		sites := chaos.ElideSites(p)
		if len(sites) == 0 {
			t.Fatalf("%s: no memory instructions to plant on", f.Name)
		}
		for _, idx := range sites {
			q := chaos.PlantSpuriousElideAt(p, idx)
			diags := ElideAudit(q, bounds.Contract{})
			if !hasDiag(diags, KindUnsoundElide, idx) {
				t.Errorf("%s: spurious E planted on instr %d (%s): no unsound-elide diagnostic there; got %v",
					f.Name, idx, p.Instrs[idx].Op, diags)
			}
			for _, d := range diags {
				if d.Instr != idx {
					t.Errorf("%s: planted on instr %d but diagnostic anchored at %d: %s",
						f.Name, idx, d.Instr, d)
				}
			}
		}
	}
}

// TestSpuriousElideAuditOnElidedWorkloads tampers real elided programs:
// planting an extra E on a site the compiler's bounds analysis left
// unproven must be rejected, while re-planting an already-justified site
// keeps the audit clean (idempotence). The probe reports how many
// unproven sites the audit's independent analysis happens to justify
// anyway — those are not unsoundness, just extra precision — but at
// least one site per workload must be pinned.
func TestSpuriousElideAuditOnElidedWorkloads(t *testing.T) {
	for _, s := range workloads.All() {
		f, err := s.Kernel()
		if err != nil {
			t.Fatalf("%s: kernel: %v", s.Name, err)
		}
		p, _, _, err := compiler.CompileElidedWithSourceMap(f, s.Contract())
		if err != nil {
			t.Fatalf("%s: elided compile: %v", s.Name, err)
		}
		var elided, unproven []int
		for _, idx := range chaos.ElideSites(p) {
			if p.Instrs[idx].Hint.E {
				elided = append(elided, idx)
			} else {
				unproven = append(unproven, idx)
			}
		}
		if len(elided) == 0 {
			t.Fatalf("%s: no elided sites", s.Name)
		}
		// Idempotence: re-planting a justified site changes nothing.
		if diags := ElideAudit(chaos.PlantSpuriousElideAt(p, elided[0]), s.Contract()); len(diags) != 0 {
			t.Errorf("%s: re-planted justified site %d rejected: %v", s.Name, elided[0], diags)
		}
		if len(unproven) == 0 {
			// Every memory site was proven and elided; nothing to tamper.
			continue
		}
		pinned := 0
		for _, idx := range unproven {
			q := chaos.PlantSpuriousElideAt(p, idx)
			diags := ElideAudit(q, s.Contract())
			if hasDiag(diags, KindUnsoundElide, idx) {
				pinned++
			}
			for _, d := range diags {
				if d.Instr != idx {
					t.Errorf("%s: planted on instr %d but diagnostic anchored at %d: %s",
						s.Name, idx, d.Instr, d)
				}
			}
		}
		t.Logf("%s: %d/%d unproven sites pinned when tampered", s.Name, pinned, len(unproven))
		if pinned == 0 {
			t.Errorf("%s: no tampered site pinned — the audit justifies everything the compiler would not", s.Name)
		}
	}
}

// TestElideAuditNeverExecutedInstr: an @!PT instruction never runs, so
// the IADD that would pull the pointer back in bounds must not count.
func TestElideAuditNeverExecutedInstr(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	p := &isa.Program{Name: "never_executed", NumRegs: 8, Instrs: []isa.Instr{
		{Op: isa.MOV, Dst: 1, Src: rz, Imm: 64, HasImm: true, Pred: isa.PT},
		{Op: isa.MALLOC, Dst: 4, Src: [3]isa.Reg{1, isa.RZ, isa.RZ}, Pred: isa.PT},
		{Op: isa.IADD, Dst: 4, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Imm: 4096, HasImm: true,
			Aux: isa.AuxW64, Pred: isa.PT},
		{Op: isa.IADD, Dst: 4, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Imm: -4096, HasImm: true,
			Aux: isa.AuxW64, Pred: isa.PT, PredNeg: true},
		{Op: isa.LDG, Dst: 5, Src: [3]isa.Reg{4, isa.RZ, isa.RZ}, Aux: 2, Pred: isa.PT,
			Hint: isa.Hint{E: true}},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
	}}
	if diags := ElideAudit(p, bounds.Contract{}); !hasDiag(diags, KindUnsoundElide, 4) {
		t.Fatalf("elided load 4 KiB past a 64-byte allocation accepted; got %v", diags)
	}
}
