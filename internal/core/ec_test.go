package core

import (
	"errors"
	"testing"
)

func TestECAllowsValidAccess(t *testing.T) {
	ec := NewEC()
	p, _ := ec.Codec.Encode(0x1000, 2) // 512 B
	if err := ec.CheckAccess(p, 4); err != nil {
		t.Fatalf("valid access rejected: %v", err)
	}
	// Last word of the buffer.
	last := Pointer(uint64(p) + 508)
	if err := ec.CheckAccess(last, 4); err != nil {
		t.Fatalf("last-word access rejected: %v", err)
	}
	if ec.Stats.Checks != 2 || ec.Stats.Faults != 0 {
		t.Errorf("stats: %+v", ec.Stats)
	}
}

func TestECFaultsOnZeroExtent(t *testing.T) {
	ec := NewEC()
	p, _ := ec.Codec.Encode(0x1000, 2)
	dead := p.Invalidate()
	err := ec.CheckAccess(dead, 4)
	if err == nil {
		t.Fatal("zero-extent dereference allowed")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error is not a *Fault: %v", err)
	}
	if f.Kind != FaultSpatial {
		t.Errorf("fault kind = %v", f.Kind)
	}
	if ec.Stats.Faults != 1 {
		t.Errorf("stats: %+v", ec.Stats)
	}
}

func TestECFaultsOnStraddlingAccess(t *testing.T) {
	ec := NewEC()
	p, _ := ec.Codec.Encode(0x1000, 1) // 256 B
	// 8-byte access starting 4 bytes before the end straddles the limit.
	straddle := Pointer(uint64(p) + 252)
	if err := ec.CheckAccess(straddle, 8); err == nil {
		t.Fatal("straddling access allowed")
	}
	if err := ec.CheckAccess(straddle, 4); err != nil {
		t.Fatalf("exact-fit access rejected: %v", err)
	}
}

// TestECSizeClassCheckMatchesInBounds: for every practical extent, the
// EC's straddle check admits exactly the accesses whose last byte
// Codec.InBounds places in the pointer's buffer, at offsets around the
// start and the end of the size class and sizes up to past the class.
func TestECSizeClassCheckMatchesInBounds(t *testing.T) {
	ec := NewEC()
	c := ec.Codec
	for e := Extent(1); e <= c.maxPractical(); e++ {
		class := c.SizeForExtent(e)
		base := class * 3
		p, err := c.Encode(base, e)
		if err != nil {
			t.Fatalf("extent %d: %v", e, err)
		}
		for _, off := range []uint64{0, 1, 4, class/2 - 1, class - 8, class - 4, class - 1} {
			q := Pointer(uint64(p) + off)
			for _, size := range []uint64{1, 2, 4, 8, 16, class - off, class - off + 1, class} {
				last := q.Addr() + size - 1
				want := last >= q.Addr() && c.InBounds(q, last)
				if got := ec.CheckAccess(q, size) == nil; got != want {
					t.Errorf("extent %d offset %d size %d: allowed=%v, InBounds says %v", e, off, size, got, want)
				}
			}
		}
	}
}

func TestECFaultsOnDebugExtent(t *testing.T) {
	c, _ := NewCodec(8, 28)
	ec := &EC{Codec: c}
	dbg, _ := c.DebugExtent(1)
	p := Pointer(0x1000).WithExtent(dbg)
	if err := ec.CheckAccess(p, 4); err == nil {
		t.Fatal("debug-extent dereference allowed")
	}
}

func TestECWithLivenessTracker(t *testing.T) {
	tr := NewLivenessTracker(false)
	ec := &EC{Codec: DefaultCodec, Tracker: tr}
	p, _ := ec.Codec.Encode(0x4000, 1)
	tr.OnAlloc(p)
	if err := ec.CheckAccess(p, 4); err != nil {
		t.Fatalf("live buffer rejected: %v", err)
	}
	// A copied pointer keeps its extent after the original is freed, but
	// the tracker catches it (§XII-C fixes the Fig. 11 gap).
	copied := Pointer(uint64(p) + 8)
	tr.OnFree(p)
	err := ec.CheckAccess(copied, 4)
	if err == nil {
		t.Fatal("copied-pointer UAF not caught with tracker")
	}
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultTemporal {
		t.Errorf("expected temporal fault, got %v", err)
	}
}

func TestFaultKindStrings(t *testing.T) {
	kinds := map[FaultKind]string{
		FaultNone:        "none",
		FaultSpatial:     "spatial",
		FaultTemporal:    "temporal",
		FaultInvalidFree: "invalid-free",
		FaultDoubleFree:  "double-free",
		FaultKind(99):    "FaultKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	f := NewFault(FaultSpatial, 0, 0x10, "boom")
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}
