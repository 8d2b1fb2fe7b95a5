package bounds

import (
	"strings"
	"testing"
	"unsafe"

	"lmi/internal/ir"
	"lmi/internal/isa"
)

func testContract() Contract {
	return Contract{
		CountParam: 2, CountMin: 1, CountMax: 1 << 15,
		PtrBytesPerCount: 4,
		BlockDimX:        128, GridDimX: 48,
	}
}

func analyzeOrDie(t *testing.T, f *ir.Func, c Contract) *Result {
	t.Helper()
	res, err := Analyze(f, c)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", f.Name, err)
	}
	return res
}

func wantVerdicts(t *testing.T, res *Result, want ...Verdict) {
	t.Helper()
	if len(res.Accesses) != len(want) {
		t.Fatalf("%s: got %d accesses, want %d: %v", res.Func, len(res.Accesses), len(want), res.Accesses)
	}
	for i, a := range res.Accesses {
		if a.Verdict != want[i] {
			t.Errorf("%s: access %d = %s, want %s (%s)", res.Func, i, a.Verdict, want[i], a.Detail)
		}
	}
}

// TestAvalSize pins the abstract value's footprint: every block walk and
// join copies states of these by value, so a wider value costs every
// analysis in bytes moved.
func TestAvalSize(t *testing.T) {
	if sz := unsafe.Sizeof(aval{}); sz > 56 {
		t.Fatalf("unsafe.Sizeof(aval{}) = %d, want at most 56", sz)
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	cases := []struct{ a, b, add, mul int64 }{
		{posInf, 1, posInf, posInf},
		{negInf, -1, negInf, posInf},
		{negInf, 1, negInf, negInf},
		{1 << 62, 1 << 62, posInf, posInf},
		{-(1 << 62), -(1 << 62), negInf, posInf},
		{3, 4, 7, 12},
		{-3, 4, 1, -12},
		{0, posInf, posInf, 0},
	}
	for _, c := range cases {
		if got := satAdd(c.a, c.b); got != c.add {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.add)
		}
		if got := satMul(c.a, c.b); got != c.mul {
			t.Errorf("satMul(%d, %d) = %d, want %d", c.a, c.b, got, c.mul)
		}
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{2, 5}
	b := Interval{-3, 4}
	if got := a.Add(b); got != (Interval{-1, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Interval{-2, 8}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != (Interval{-15, 20}) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Min(b); got != (Interval{-3, 4}) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Join(b); got != (Interval{-3, 5}) {
		t.Errorf("Join = %v", got)
	}
	if got := (Interval{0, 1 << 40}).clampI32(); got != topI32() {
		t.Errorf("clampI32 overflow = %v", got)
	}
	if got := (Interval{0, 7}).clampI32(); got != (Interval{0, 7}) {
		t.Errorf("clampI32 fit = %v", got)
	}
	w := Interval{0, 10}.widenFrom(Interval{0, 5})
	if w != (Interval{0, posInf}) {
		t.Errorf("widenFrom moved-hi = %v", w)
	}
	w = Interval{0, 5}.widenFrom(Interval{0, 5})
	if w != (Interval{0, 5}) {
		t.Errorf("widenFrom stable = %v", w)
	}
}

// evalUB computes floor((A*n+C)/D) for a concrete n.
func evalUB(s SymUB, n int64) int64 {
	v := s.A*n + s.C
	// Go's integer division truncates toward zero; the domain only ever
	// evaluates bounds the tests keep non-negative.
	return v / s.D
}

func TestSymUBTransfers(t *testing.T) {
	n := int64(100)
	idx := symN().AddConst(-1) // idx <= n-1
	if got := evalUB(idx, n); got != 99 {
		t.Fatalf("n-1 bound = %d", got)
	}
	off := idx.MulConst(4) // byte offset <= 4n-4
	if got := evalUB(off, n); got != 396 {
		t.Fatalf("4(n-1) bound = %d", got)
	}
	half := idx.ShrConst(1) // idx>>1 <= (n-1)/2
	if got := evalUB(half, n); got != 49 {
		t.Fatalf("(n-1)>>1 bound = %d", got)
	}
	sum := off.Add(symConst(8)) // offset+8
	if got := evalUB(sum, n); got != 404 {
		t.Fatalf("sum bound = %d", got)
	}
	if s := idx.MulConst(-2); s.OK {
		t.Error("negative multiplier must drop the bound")
	}
	j := off.join(idx)
	if j.OK {
		t.Error("join of different denominized forms must drop")
	}
	j = off.join(off.AddConst(4))
	if !j.OK || evalUB(j, n) != 400 {
		t.Errorf("join same-shape = %+v", j)
	}
}

// buildGuarded builds the canonical masked-index kernel:
// idx = gtid & (n-1); out[idx] = in[idx].
func buildGuarded(t *testing.T) *ir.Func {
	t.Helper()
	b := ir.NewBuilder("guarded")
	in := b.Param(ir.PtrGlobal)
	out := b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	one := b.ConstI(ir.I32, 1)
	idx := b.And(b.GlobalTID(), b.Sub(n, one))
	v := b.Load(ir.F32, b.GEP(in, idx, 4, 0), 0)
	b.Store(b.GEP(out, idx, 4, 0), v, 0)
	return b.MustFinish()
}

func TestAndGuardProven(t *testing.T) {
	res := analyzeOrDie(t, buildGuarded(t), testContract())
	wantVerdicts(t, res, VerdictProven, VerdictProven)
	if !res.Proven(res.Accesses[0].Block, res.Accesses[0].Index) {
		t.Error("Proven() lookup disagrees with verdict list")
	}
}

func TestMinGuardLoopProven(t *testing.T) {
	// The Min guard only proves in-bounds-ness if the analysis can show
	// the index non-negative through the loop, which requires branch
	// refinement of the induction variable plus stable-side widening.
	b := ir.NewBuilder("minloop")
	in := b.Param(ir.PtrGlobal)
	out := b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	gtid := b.GlobalTID()
	nthreads := b.Mul(b.NTID(), b.Special(isa.SRNctaidX))
	one := b.ConstI(ir.I32, 1)
	b.For(b.ConstI(ir.I32, 8), func(e ir.Value) {
		idx := b.Add(gtid, b.Mul(e, nthreads))
		idx = b.Min(idx, b.Sub(n, one))
		v := b.Load(ir.F32, b.GEP(in, idx, 4, 0), 0)
		b.Store(b.GEP(out, idx, 4, 0), v, 0)
	})
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictProven, VerdictProven)
}

func TestUnguardedUnknown(t *testing.T) {
	b := ir.NewBuilder("unguarded")
	in := b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	idx := b.GlobalTID()
	b.Load(ir.F32, b.GEP(in, idx, 4, 0), 0)
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictUnknown)
}

func TestAllocaVerdicts(t *testing.T) {
	b := ir.NewBuilder("alloca")
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	loc := b.Alloca(256)
	x := b.ConstI(ir.I32, 7)
	b.Store(b.GEP(loc, ir.NoValue, 0, 252), x, 0) // last word: in bounds
	b.Store(b.GEP(loc, ir.NoValue, 0, 256), x, 0) // one past the end: OOB
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictProven, VerdictOOB)
	oob := res.OOB()
	if len(oob) != 1 {
		t.Fatalf("OOB() = %v", oob)
	}
	e := &OOBError{Func: res.Func, Access: oob[0]}
	if !strings.Contains(e.Error(), "provably out of bounds") {
		t.Errorf("OOBError rendering: %s", e)
	}
	p, u, o := res.Counts()
	if p != 1 || u != 0 || o != 1 {
		t.Errorf("Counts() = %d, %d, %d", p, u, o)
	}
}

func TestSymbolicOffsetNeedsCountFloor(t *testing.T) {
	// in[(idx>>1) + 1 element]: byte offset <= 4*((n-1)>>1) + 4, which is
	// within 4n only once n >= 3. The proof must appear exactly when the
	// contract's CountMin crosses that line.
	build := func() *ir.Func {
		b := ir.NewBuilder("halfidx")
		in := b.Param(ir.PtrGlobal)
		_ = b.Param(ir.PtrGlobal)
		n := b.Param(ir.I32)
		one := b.ConstI(ir.I32, 1)
		idx := b.And(b.GlobalTID(), b.Sub(n, one))
		half := b.Shr(idx, one)
		b.Load(ir.F32, b.GEP(in, half, 4, 4), 0)
		return b.MustFinish()
	}
	c := testContract()
	res := analyzeOrDie(t, build(), c)
	wantVerdicts(t, res, VerdictUnknown)

	c.CountMin = 3
	res = analyzeOrDie(t, build(), c)
	wantVerdicts(t, res, VerdictProven)
}

func TestLastElementSymbolicProof(t *testing.T) {
	// in[n-1] is in bounds for every n — only the symbolic route can see
	// this, the concrete interval alone spans the whole count range.
	b := ir.NewBuilder("lastelem")
	in := b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	one := b.ConstI(ir.I32, 1)
	b.Load(ir.F32, b.GEP(in, b.Sub(n, one), 4, 0), 0)
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictProven)
}

func TestHeapMaskProvenAndFreeKillsFacts(t *testing.T) {
	b := ir.NewBuilder("heap")
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	heap := b.Malloc(b.ConstI(ir.I32, 64*4))
	e := b.ConstI(ir.I32, 9)
	ha := b.And(e, b.ConstI(ir.I32, 63))
	b.Store(b.GEP(heap, ha, 4, 0), e, 0)
	b.Free(heap)
	b.Store(b.GEP(heap, ha, 4, 0), e, 0) // use after free: never elidable
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictProven, VerdictUnknown)
}

func TestFreeKillsAliases(t *testing.T) {
	// p = malloc 64; q = gep p, 0; free p; store q — the alias carries
	// the same allocation-site fact as the freed value and must die with
	// it, or the use-after-free would be classified proven and elided.
	b := ir.NewBuilder("freealias")
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	heap := b.Malloc(b.ConstI(ir.I32, 64))
	q := b.GEP(heap, ir.NoValue, 0, 0)
	e := b.ConstI(ir.I32, 1)
	b.Store(q, e, 0) // before the free: proven
	b.Free(heap)
	b.Store(q, e, 0) // after the free, through the alias: never elidable
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictProven, VerdictUnknown)
}

func TestFreeUnknownProvenanceKillsHeapFacts(t *testing.T) {
	// Freeing a pointer whose provenance the analysis lost (a select of
	// two sites joins to top) could target any heap allocation, so every
	// heap-site fact must die — a surviving one would elide a potential
	// use-after-free.
	b := ir.NewBuilder("freeunknown")
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	h1 := b.Malloc(b.ConstI(ir.I32, 64))
	h2 := b.Malloc(b.ConstI(ir.I32, 64))
	e := b.ConstI(ir.I32, 1)
	mix := b.Select(b.ICmp(isa.CmpEQ, e, e), h1, h2)
	b.Free(mix)
	b.Store(h1, e, 0) // may be the freed allocation: unknown
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictUnknown)
}

func TestScaledSitePastGuaranteeNotOOB(t *testing.T) {
	// in[CountMax] lies past the contract's guaranteed minimum extent,
	// but the guarantee is only a floor ("at least perCount*n bytes") —
	// the real buffer may be larger, so the access is not provably OOB
	// and compilation must keep the runtime check instead of aborting.
	c := testContract()
	b := ir.NewBuilder("pastguarantee")
	in := b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	b.Load(ir.F32, b.GEP(in, b.ConstI(ir.I32, c.CountMax), 4, 0), 0)
	res := analyzeOrDie(t, b.MustFinish(), c)
	wantVerdicts(t, res, VerdictUnknown)
}

func TestSharedAccessesNotReported(t *testing.T) {
	b := ir.NewBuilder("shared")
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	sh := b.Shared(128)
	b.Store(b.GEP(sh, ir.NoValue, 0, 0), b.ConstI(ir.I32, 1), 0)
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	if len(res.Accesses) != 0 {
		t.Errorf("shared accesses reported: %v", res.Accesses)
	}
}

func TestI32OverflowDefeatsProof(t *testing.T) {
	// idx*big may wrap in 32-bit arithmetic; a wrapped index can be
	// negative, so the Min guard alone must not prove the access.
	b := ir.NewBuilder("overflow")
	in := b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	n := b.Param(ir.I32)
	one := b.ConstI(ir.I32, 1)
	big := b.ConstI(ir.I32, 1<<20)
	idx := b.Mul(b.GlobalTID(), big) // up to ~2^32.6: may wrap negative
	idx = b.Min(idx, b.Sub(n, one))
	b.Load(ir.F32, b.GEP(in, idx, 4, 0), 0)
	res := analyzeOrDie(t, b.MustFinish(), testContract())
	wantVerdicts(t, res, VerdictUnknown)
}

func TestContractValidation(t *testing.T) {
	f := buildGuarded(t)
	bad := []Contract{
		{CountParam: -1, BlockDimX: 0, GridDimX: 1},
		{CountParam: -1, BlockDimX: 2048, GridDimX: 1},
		{CountParam: -1, BlockDimX: 128, GridDimX: 0},
		{CountParam: 7, BlockDimX: 128, GridDimX: 1, CountMin: 1, CountMax: 2},
		{CountParam: 0, BlockDimX: 128, GridDimX: 1, CountMin: 1, CountMax: 2}, // param 0 is a pointer
		{CountParam: 2, BlockDimX: 128, GridDimX: 1, CountMin: 0, CountMax: 2},
		{CountParam: 2, BlockDimX: 128, GridDimX: 1, CountMin: 5, CountMax: 2},
	}
	for i, c := range bad {
		if _, err := Analyze(f, c); err == nil {
			t.Errorf("contract %d accepted: %+v", i, c)
		}
	}
	if _, err := Analyze(f, testContract()); err != nil {
		t.Errorf("valid contract rejected: %v", err)
	}
}

func TestNoContractCountStillConcrete(t *testing.T) {
	// Without a count parameter contract, pointer parameters carry no
	// size guarantee, but concrete sites still prove.
	b := ir.NewBuilder("nocontract")
	in := b.Param(ir.PtrGlobal)
	_ = b.Param(ir.PtrGlobal)
	_ = b.Param(ir.I32)
	loc := b.Alloca(64)
	b.Store(b.GEP(loc, ir.NoValue, 0, 0), b.ConstI(ir.I32, 1), 0)
	b.Load(ir.F32, b.GEP(in, b.ConstI(ir.I32, 0), 4, 0), 0)
	res := analyzeOrDie(t, b.MustFinish(), Contract{CountParam: -1, BlockDimX: 128, GridDimX: 48})
	wantVerdicts(t, res, VerdictProven, VerdictUnknown)
}
