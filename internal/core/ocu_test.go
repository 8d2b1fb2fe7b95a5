package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOCUInBoundsArithmetic(t *testing.T) {
	o := NewOCU()
	p, _ := o.Codec.Encode(0x12345600, 1) // 256 B buffer
	// Paper §IV-A1: pointer update to 0x1234567F stays in bounds.
	out := Pointer(uint64(p) + 0x7F)
	res, overflow := o.Check(p, out)
	if overflow || res != out {
		t.Fatalf("in-bounds update flagged: res=%v overflow=%v", res, overflow)
	}
	if o.Stats.Checks != 1 || o.Stats.Overflows != 0 {
		t.Errorf("stats: %+v", o.Stats)
	}
}

func TestOCUOverflowClearsExtent(t *testing.T) {
	o := NewOCU()
	p, _ := o.Codec.Encode(0x12345600, 1)
	// Paper §IV-A2: update to 0x12345700 leaves the 256 B buffer.
	out := Pointer(uint64(p) + 0x100)
	res, overflow := o.Check(p, out)
	if !overflow {
		t.Fatal("out-of-bounds update not detected")
	}
	if res.Valid() {
		t.Fatal("overflowing result must have extent cleared (delayed termination)")
	}
	if res.Addr() != p.Addr()+0x100 {
		t.Errorf("address field must carry the out-of-bounds value: %#x", res.Addr())
	}
	if o.Stats.Overflows != 1 {
		t.Errorf("stats: %+v", o.Stats)
	}
}

func TestOCUNegativeUnderflow(t *testing.T) {
	o := NewOCU()
	p, _ := o.Codec.Encode(0x1000, 2) // 512 B at 0x1000
	out := Pointer(uint64(p) - 1)     // one before base
	res, overflow := o.Check(p, out)
	if !overflow || res.Valid() {
		t.Fatal("underflow below base not detected")
	}
}

func TestOCUInvalidInputStaysInvalid(t *testing.T) {
	o := NewOCU()
	p, _ := o.Codec.Encode(0x2000, 1)
	dead := p.Invalidate()
	res, overflow := o.Check(dead, Pointer(uint64(dead)+8))
	if overflow {
		t.Error("arithmetic on dead pointer is not a fresh overflow event")
	}
	if res.Valid() {
		t.Error("dead pointer arithmetic must stay dead")
	}
	if o.Stats.InvalidIn != 1 {
		t.Errorf("stats: %+v", o.Stats)
	}
}

func TestOCUMove(t *testing.T) {
	o := NewOCU()
	p, _ := o.Codec.Encode(0x3000, 1)
	if got := o.CheckMove(p); got != p {
		t.Errorf("move changed pointer: %v -> %v", p, got)
	}
}

func TestOCULargeStrideWithinLargeBuffer(t *testing.T) {
	o := NewOCU()
	p, _ := o.Codec.Encode(0, 31) // 256 GiB buffer at 0
	out := Pointer(uint64(p) + (uint64(1)<<38 - 1))
	if _, overflow := o.Check(p, out); overflow {
		t.Error("access within 256 GiB buffer flagged")
	}
	out = Pointer(uint64(p) + (uint64(1) << 38))
	if _, overflow := o.Check(p, out); !overflow {
		t.Error("access past 256 GiB buffer not flagged")
	}
}

// Property: the OCU flags an update iff the resulting address leaves
// [base, base+size) — equivalence between the bitwise datapath and the
// arithmetic bounds definition. (Offsets are constrained to the address
// field so the extent bits are not corrupted by the addition itself; the
// datapath would flag extent-bit corruption too.)
func TestPropertyOCUEquivalentToBoundsCheck(t *testing.T) {
	o := NewOCU()
	c := o.Codec
	f := func(rawBase, rawOff uint64, rawExt uint8, sub bool) bool {
		e := Extent(rawExt%31 + 1)
		size := c.SizeForExtent(e)
		base := (rawBase & (AddrMask >> 1)) &^ (size - 1)
		p, err := c.Encode(base, e)
		if err != nil {
			return false
		}
		off := rawOff % (2 * size)
		var out Pointer
		var target uint64
		if sub && base >= off {
			out = Pointer(uint64(p) - off)
			target = base - off
		} else {
			out = Pointer(uint64(p) + off)
			target = base + off
		}
		inBounds := target >= base && target < base+size
		res, overflow := o.Check(p, out)
		if inBounds {
			return !overflow && res == out
		}
		return overflow && !res.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: Check is idempotent in the failure path — once cleared, extent
// never resurrects through further arithmetic.
func TestPropertyOCUDeadStaysDead(t *testing.T) {
	o := NewOCU()
	c := o.Codec
	f := func(rawBase, a, b uint64) bool {
		base := (rawBase & AddrMask) &^ 255
		p, err := c.Encode(base, 1)
		if err != nil {
			return false
		}
		// Force an overflow, then apply arbitrary further updates.
		res, _ := o.Check(p, Pointer(uint64(p)+256))
		res2, _ := o.Check(res, Pointer(uint64(res)+a%1024))
		res3, _ := o.Check(res2, Pointer(uint64(res2)-b%1024))
		return !res.Valid() && !res2.Valid() && !res3.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// laneChecks is CheckRow's definition: Check on each lane of exec, in
// ascending order.
func laneChecks(o *OCU, in, out *[32]uint64, exec uint32) {
	for l := range in {
		if exec&(1<<l) != 0 {
			res, _ := o.Check(Pointer(in[l]), Pointer(out[l]))
			out[l] = uint64(res)
		}
	}
}

// checkRowMatches runs CheckRow and laneChecks on copies of out and
// reports the first difference in the rows or the statistics.
func checkRowMatches(in, out [32]uint64, exec uint32) string {
	row, lanes := NewOCU(), NewOCU()
	got, want := out, out
	row.CheckRow(&in, &got, exec)
	laneChecks(lanes, &in, &want, exec)
	for l := range got {
		if got[l] != want[l] {
			return fmt.Sprintf("lane %d: %#x, lane by lane %#x", l, got[l], want[l])
		}
	}
	if row.Stats != lanes.Stats {
		return fmt.Sprintf("stats %+v, lane by lane %+v", row.Stats, lanes.Stats)
	}
	return ""
}

// CheckRow's one-buffer path must not pass a row the lane checks
// would clear: mixed extents, a dead pointer, an all-dead row, one
// stray lane, and a partial mask over an overflowing lane.
func TestOCUCheckRowMatchesLaneChecks(t *testing.T) {
	c := DefaultCodec
	big, _ := c.Encode(0x100000, 12)  // 512 KiB
	small, _ := c.Encode(0x200000, 1) // 256 B
	oneBuffer := func(step uint64) (in, out [32]uint64) {
		for l := range in {
			in[l] = uint64(big) + uint64(l)*64
			out[l] = in[l] + step
		}
		return
	}
	for _, tc := range []struct {
		name string
		edit func(in, out *[32]uint64)
		exec uint32
	}{
		{"in bounds", func(*[32]uint64, *[32]uint64) {}, ^uint32(0)},
		{"one lane past the end", func(in, out *[32]uint64) { out[17] = in[17] + 1<<19 }, ^uint32(0)},
		{"small buffer lane", func(in, out *[32]uint64) { in[31], out[31] = uint64(small), uint64(small)+0x100 }, ^uint32(0)},
		{"dead lane", func(in, out *[32]uint64) { in[3] = uint64(big.Invalidate()); out[3] = in[3] + 8 }, ^uint32(0)},
		{"all dead", func(in, out *[32]uint64) {
			for l := range in {
				in[l] = uint64(Pointer(in[l]).Invalidate())
				out[l] = in[l]
			}
		}, ^uint32(0)},
		{"partial mask", func(in, out *[32]uint64) { out[5] = in[5] - 1<<20 }, 0xfffffff0},
		{"empty mask", func(in, out *[32]uint64) { out[5] = in[5] - 1<<20 }, 0},
	} {
		in, out := oneBuffer(8)
		tc.edit(&in, &out)
		if msg := checkRowMatches(in, out, tc.exec); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

// Property: CheckRow equals the lane checks on rows of one buffer and
// rows mixing buffers, extents and dead pointers, under full and
// random masks. A lane steps a buffer's size past either end once in
// 64, so most full one-buffer rows take the one-mask path.
func TestPropertyOCUCheckRowMatchesLaneChecks(t *testing.T) {
	c := DefaultCodec
	f := func(seed int64, mixed, full bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var ptrs [3]Pointer
		for i := range ptrs {
			e := Extent(1 + rng.Intn(12))
			size := c.SizeForExtent(e)
			ptrs[i], _ = c.Encode((rng.Uint64()&(AddrMask>>1))&^(size-1), e)
			if mixed && rng.Intn(4) == 0 {
				ptrs[i] = ptrs[i].Invalidate()
			}
		}
		var in, out [32]uint64
		for l := range in {
			p := ptrs[0]
			if mixed {
				p = ptrs[rng.Intn(len(ptrs))]
			}
			size := c.SizeForExtent(p.Extent()) | 256
			in[l] = uint64(p) + rng.Uint64()%size
			out[l] = uint64(p) + rng.Uint64()%size
			switch rng.Intn(128) {
			case 0:
				out[l] += size
			case 1:
				out[l] -= size
			}
		}
		exec := ^uint32(0)
		if !full {
			exec = rng.Uint32()
		}
		if msg := checkRowMatches(in, out, exec); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
