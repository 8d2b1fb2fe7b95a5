package bounds

import "math"

// negInf and posInf are the saturating sentinels of the interval domain.
// Every arithmetic helper saturates toward them, so an unknown or
// overflowing bound degrades to "unbounded" instead of wrapping — the
// property that keeps the analysis sound.
const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
)

// Interval is an inclusive integer range [Lo, Hi] over int64, with
// negInf/posInf marking unbounded sides. The empty interval is never
// constructed: joins only grow ranges and transfers of infeasible states
// are harmless over-approximations.
type Interval struct {
	Lo, Hi int64
}

// top is the unbounded interval.
func top() Interval { return Interval{negInf, posInf} }

// topI32 is the range of a 32-bit two's-complement value.
func topI32() Interval { return Interval{math.MinInt32, math.MaxInt32} }

func single(c int64) Interval { return Interval{c, c} }

// IsConst reports whether the interval is a singleton.
func (iv Interval) IsConst() bool { return iv.Lo == iv.Hi }

func satAdd(a, b int64) int64 {
	if a == posInf || b == posInf {
		if a == negInf || b == negInf {
			return posInf // unbounded either way; stay sound on the high side
		}
		return posInf
	}
	if a == negInf || b == negInf {
		return negInf
	}
	s := a + b
	// Two's-complement overflow: operands share a sign the sum lost.
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return posInf
		}
		return negInf
	}
	return s
}

func satNeg(a int64) int64 {
	switch a {
	case negInf:
		return posInf
	case posInf:
		return negInf
	default:
		return -a
	}
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	if a == negInf || a == posInf || b == negInf || b == posInf {
		if neg {
			return negInf
		}
		return posInf
	}
	p := a * b
	if p/b != a {
		if neg {
			return negInf
		}
		return posInf
	}
	return p
}

// Add returns the interval sum.
func (iv Interval) Add(o Interval) Interval {
	return Interval{satAdd(iv.Lo, o.Lo), satAdd(iv.Hi, o.Hi)}
}

// AddConst shifts the interval by a constant.
func (iv Interval) AddConst(c int64) Interval {
	return Interval{satAdd(iv.Lo, c), satAdd(iv.Hi, c)}
}

// Sub returns the interval difference.
func (iv Interval) Sub(o Interval) Interval {
	return Interval{satAdd(iv.Lo, satNeg(o.Hi)), satAdd(iv.Hi, satNeg(o.Lo))}
}

// Mul returns the interval product (min/max over the corner products).
func (iv Interval) Mul(o Interval) Interval {
	ps := [4]int64{
		satMul(iv.Lo, o.Lo), satMul(iv.Lo, o.Hi),
		satMul(iv.Hi, o.Lo), satMul(iv.Hi, o.Hi),
	}
	r := Interval{ps[0], ps[0]}
	for _, p := range ps[1:] {
		if p < r.Lo {
			r.Lo = p
		}
		if p > r.Hi {
			r.Hi = p
		}
	}
	return r
}

// Min returns the pointwise minimum: min(x, y) is at most the smaller of
// the two upper bounds and at least the smaller of the two lower bounds.
func (iv Interval) Min(o Interval) Interval {
	return Interval{min(iv.Lo, o.Lo), min(iv.Hi, o.Hi)}
}

// Max returns the pointwise maximum.
func (iv Interval) Max(o Interval) Interval {
	return Interval{max(iv.Lo, o.Lo), max(iv.Hi, o.Hi)}
}

// Join returns the convex hull.
func (iv Interval) Join(o Interval) Interval {
	return Interval{min(iv.Lo, o.Lo), max(iv.Hi, o.Hi)}
}

// widenFrom widens iv against the previous bound old: any side that moved
// goes straight to infinity, guaranteeing fixpoint termination while
// preserving bounds that stayed stable (a loop counter's zero floor).
func (iv Interval) widenFrom(old Interval) Interval {
	w := iv
	if iv.Lo < old.Lo {
		w.Lo = negInf
	}
	if iv.Hi > old.Hi {
		w.Hi = posInf
	}
	return w
}

// clampI32 accounts for 32-bit two's-complement wrap-around: a result
// that provably fits in int32 keeps its bounds; anything that might
// overflow degrades to the full int32 range (the wrapped value could be
// anything, including negative — which is exactly what defeats unsound
// in-bounds proofs through overflowing index arithmetic).
func (iv Interval) clampI32() Interval {
	if iv.Lo < math.MinInt32 || iv.Hi > math.MaxInt32 {
		return topI32()
	}
	return iv
}

// SymUB is a symbolic upper bound on an integer value in terms of the
// contract's element count n: value <= floor((A*n + C) / D) for every
// valid n, with A >= 0 and D a positive power of two. It captures the
// guarded-index pattern idx <= n-1 and its byte-scaled descendants
// (idx*4, idx>>1, ...) precisely enough to discharge extent checks whose
// bound itself scales with n.
//
// The zero value (OK == false) means "no symbolic bound".
type SymUB struct {
	OK      bool
	A, C, D int64
}

func symConst(c int64) SymUB { return SymUB{OK: true, A: 0, C: c, D: 1} }

// symN is the identity bound value <= n.
func symN() SymUB { return SymUB{OK: true, A: 1, C: 0, D: 1} }

// valid reports whether the coefficients respect the domain invariants.
func (s SymUB) valid() bool {
	return s.OK && s.A >= 0 && s.D >= 1 && s.D&(s.D-1) == 0
}

// mulOK and addOK are overflow-checked arithmetic for symbolic
// coefficients: a saturated result (which a true extreme value would
// also produce) is conservatively treated as overflow.
func mulOK(a, b int64) (int64, bool) {
	p := satMul(a, b)
	if p == posInf || p == negInf {
		return 0, false
	}
	return p, true
}

func addOK(a, b int64) (int64, bool) {
	s := satAdd(a, b)
	if s == posInf || s == negInf {
		return 0, false
	}
	return s, true
}

// AddConst returns the bound for value+c: floor((An+C)/D)+c = floor((An+C+cD)/D).
func (s SymUB) AddConst(c int64) SymUB {
	if !s.valid() {
		return SymUB{}
	}
	cd, ok := mulOK(c, s.D)
	if !ok {
		return SymUB{}
	}
	nc, ok := addOK(s.C, cd)
	if !ok {
		return SymUB{}
	}
	return SymUB{OK: true, A: s.A, C: nc, D: s.D}
}

// Add combines bounds on two addends: floor(x/D)+floor(y/D) <= floor((x+y)/D)
// after rescaling both to the larger (power-of-two) denominator.
func (s SymUB) Add(o SymUB) SymUB {
	if !s.valid() || !o.valid() {
		return SymUB{}
	}
	d := max(s.D, o.D)
	ss, ok1 := s.rescale(d)
	oo, ok2 := o.rescale(d)
	if !ok1 || !ok2 {
		return SymUB{}
	}
	a, ok := addOK(ss.A, oo.A)
	if !ok {
		return SymUB{}
	}
	c, ok := addOK(ss.C, oo.C)
	if !ok {
		return SymUB{}
	}
	return SymUB{OK: true, A: a, C: c, D: d}
}

// rescale rewrites the bound over denominator d >= D (both powers of two):
// floor((An+C)/D) = floor((kAn+kC)/(kD)) with k = d/D.
func (s SymUB) rescale(d int64) (SymUB, bool) {
	k := d / s.D
	a, ok1 := mulOK(s.A, k)
	c, ok2 := mulOK(s.C, k)
	if !ok1 || !ok2 {
		return SymUB{}, false
	}
	return SymUB{OK: true, A: a, C: c, D: d}, true
}

// MulConst returns the bound for value*c with c >= 0:
// c*floor((An+C)/D) <= floor((cAn+cC)/D).
func (s SymUB) MulConst(c int64) SymUB {
	if !s.valid() || c < 0 {
		return SymUB{}
	}
	a, ok1 := mulOK(s.A, c)
	cc, ok2 := mulOK(s.C, c)
	if !ok1 || !ok2 {
		return SymUB{}
	}
	return SymUB{OK: true, A: a, C: cc, D: s.D}
}

// ShrConst returns the bound for value>>k (value >= 0, checked by the
// caller): floor(floor((An+C)/D) / 2^k) = floor((An+C)/(D*2^k)).
func (s SymUB) ShrConst(k int64) SymUB {
	if !s.valid() || k < 0 || k > 40 || s.D > 1<<22 {
		return SymUB{}
	}
	return SymUB{OK: true, A: s.A, C: s.C, D: s.D << uint(k)}
}

// equal reports coefficient equality (both invalid counts as equal).
func (s SymUB) equal(o SymUB) bool {
	if !s.OK && !o.OK {
		return true
	}
	return s.OK == o.OK && s.A == o.A && s.C == o.C && s.D == o.D
}

// join keeps a symbolic bound across a control-flow merge only when both
// sides agree on A and D; the constant term takes the weaker (larger)
// value. Anything else drops to "no bound", which keeps joins monotone.
func (s SymUB) join(o SymUB) SymUB {
	if !s.valid() || !o.valid() {
		return SymUB{}
	}
	if s.A == o.A && s.D == o.D {
		return SymUB{OK: true, A: s.A, C: max(s.C, o.C), D: s.D}
	}
	return SymUB{}
}
