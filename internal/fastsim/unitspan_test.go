package fastsim

import (
	"fmt"
	"math/bits"
	"testing"

	"lmi/internal/sim"
)

// TestUnitSpanMatchesLineCount: wherever unitSpan accepts a warp's
// addresses, the line count it derives from the first and last address
// equals the size of the first-touch line set both tiers use
// (sim.LineSet), so the unit-stride path charges the timing estimate the
// same transactions as the generic path. The cases cover aligned and
// unaligned bases, page ends, full, partial and gapped exec masks, and
// line sizes from 32 bytes to a page.
func TestUnitSpanMatchesLineCount(t *testing.T) {
	masks := []uint32{0xFFFFFFFF, 0x0000FFFF, 0xFFFF0000, 0x0F0F0F0F, 0x55555555,
		0x80000001, 0x00000001, 0x00FF0000, 0x000000F0 | 0x00F00000}
	bases := []uint64{0, 4, 60, 126, 0x1000 - 128, 0x1000 - 126, 0x1000 - 64, 0x1000 - 4, 0x7F3C}
	accepted := 0
	for _, shift := range []uint{5, 7, 12} {
		for _, mask := range masks {
			for _, base := range bases {
				var addrs [32]uint64
				for l := range addrs {
					addrs[l] = base + 4*uint64(l)
				}
				label := fmt.Sprintf("line %d, mask %#08x, base %#x", 1<<shift, mask, base)
				lo, n, ok := unitSpan(&addrs, mask, shift)
				first := 0
				for mask>>first&1 == 0 {
					first++
				}
				last := 31
				for mask>>last&1 == 0 {
					last--
				}
				inPage := (base+4*uint64(first))/0x1000 == (base+4*uint64(last)+3)/0x1000
				if !ok {
					if inPage && mask>>first == 1<<(last-first+1)-1 {
						t.Errorf("%s: contiguous in-page lanes declined", label)
					}
					continue
				}
				accepted++
				if !inPage {
					t.Errorf("%s: accepted a span crossing a page", label)
				}
				if lo != addrs[first] {
					t.Errorf("%s: lo %#x, want %#x", label, lo, addrs[first])
				}
				var set sim.LineSet
				for m := mask; m != 0; m &= m - 1 {
					set.Add(addrs[bits.TrailingZeros32(m)], 4, shift)
				}
				if want := uint64(len(set.Lines())); n != want {
					t.Errorf("%s: %d lines from the span, %d from the line set", label, n, want)
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("unitSpan accepted nothing; the comparison is vacuous")
	}
	// A lane off the stride declines the path.
	var addrs [32]uint64
	for l := range addrs {
		addrs[l] = 0x2000 + 4*uint64(l)
	}
	addrs[7] += 4
	if _, _, ok := unitSpan(&addrs, 0xFFFFFFFF, 7); ok {
		t.Error("accepted a warp with one lane off the stride")
	}
	if _, _, ok := unitSpan(&addrs, 0, 7); ok {
		t.Error("accepted an empty lane set")
	}
}
