package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddrSpaceReadWrite(t *testing.T) {
	m := NewAddrSpace()
	if m.Read(0x1000, 8) != 0 {
		t.Error("unmapped memory must read zero")
	}
	m.Write(0x1000, 0xdeadbeefcafe, 8)
	if got := m.Read(0x1000, 8); got != 0xdeadbeefcafe {
		t.Errorf("read back %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0xbeefcafe {
		t.Errorf("4-byte read %#x", got)
	}
	if got := m.Read(0x1004, 2); got != 0xdead {
		t.Errorf("2-byte read %#x", got)
	}
	m.Write(0x1002, 0xff, 1)
	if got := m.Read(0x1002, 1); got != 0xff {
		t.Errorf("1-byte read %#x", got)
	}
}

func TestAddrSpaceCrossPage(t *testing.T) {
	m := NewAddrSpace()
	addr := uint64(pageSize - 3) // straddles page boundary
	m.Write(addr, 0x1122334455667788, 8)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read %#x", got)
	}
	if m.Pages() != 2 {
		t.Errorf("pages = %d, want 2", m.Pages())
	}
	data := []byte("hello, gpu memory world, crossing pages")
	m.WriteBytes(2*pageSize-10, data)
	if got := m.ReadBytes(2*pageSize-10, len(data)); !bytes.Equal(got, data) {
		t.Errorf("ReadBytes = %q", got)
	}
}

// TestAddrSpaceReadNoAlloc: Read never allocates, neither for an
// unmapped page nor for a read that crosses a page boundary.
// TestAddrSpaceReset: after Reset the space reads as a new one — zero
// everywhere, no pages, no window — and the frames it recycles come
// back zeroed whichever page maps them next.
func TestAddrSpaceReset(t *testing.T) {
	m := NewAddrSpace()
	for i := uint64(0); i < 3; i++ {
		m.WriteBytes(i*pageSize, bytes.Repeat([]byte{0xAB}, pageSize))
	}
	m.Reset()
	if m.Pages() != 0 {
		t.Fatalf("Pages() = %d after Reset", m.Pages())
	}
	for i := uint64(0); i < 3; i++ {
		if got := m.Read(i*pageSize+8, 8); got != 0 {
			t.Errorf("page %d reads %#x after Reset", i, got)
		}
		if w := m.PageWindow(i*pageSize, false); w != nil {
			t.Errorf("page %d still has a window after Reset", i)
		}
	}
	if len(m.free) != 3 {
		t.Fatalf("%d frames kept, want 3", len(m.free))
	}
	// A store to a different page reuses a recycled frame: only the
	// stored bytes are nonzero.
	m.Write(0x7000+100, 0x1122, 2)
	if len(m.free) != 2 {
		t.Errorf("%d frames kept after one write, want 2 (frame not reused)", len(m.free))
	}
	got := m.ReadBytes(0x7000, pageSize)
	want := make([]byte, pageSize)
	want[100], want[101] = 0x22, 0x11
	if !bytes.Equal(got, want) {
		t.Error("reused frame does not read zero outside the stored bytes")
	}
	// A window materialised on a reused frame is zero too.
	if w := m.PageWindow(0x9000, true); !bytes.Equal(w, make([]byte, pageSize)) {
		t.Error("PageWindow on a reused frame is not zero")
	}
}

func TestAddrSpaceReadNoAlloc(t *testing.T) {
	m := NewAddrSpace()
	m.Write(pageSize-4, 0x1122334455667788, 8)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += m.Read(16*pageSize+8, 8) }); n != 0 {
		t.Errorf("unmapped read: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += m.Read(pageSize-4, 8) }); n != 0 {
		t.Errorf("page-crossing read: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += m.Read(3*pageSize-2, 4) }); n != 0 {
		t.Errorf("unmapped page-crossing read: %v allocs, want 0", n)
	}
	_ = sink
}

// TestAddrSpaceReadAcrossPartlyMappedBoundary: a read that crosses from
// a mapped page into an unmapped one (or back) takes the mapped bytes
// and zeros for the rest.
func TestAddrSpaceReadAcrossPartlyMappedBoundary(t *testing.T) {
	m := NewAddrSpace()
	m.Write(2*pageSize-3, 0xaabbcc, 3) // last 3 bytes of page 1 only
	if got := m.Read(2*pageSize-3, 8); got != 0xaabbcc {
		t.Errorf("mapped->unmapped read = %#x, want 0xaabbcc", got)
	}
	m.Write(4*pageSize, 0xddee, 2) // first 2 bytes of page 4 only
	if got := m.Read(4*pageSize-2, 4); got != 0xddee0000 {
		t.Errorf("unmapped->mapped read = %#x, want 0xddee0000", got)
	}
	if got := m.Read(4*pageSize-1, 2); got != 0xee00 {
		t.Errorf("2-byte crossing read = %#x, want 0xee00", got)
	}
	if m.Pages() != 2 {
		t.Errorf("reads mapped pages: %d, want 2", m.Pages())
	}
}

// Property: write-then-read returns the written value for all sizes and
// addresses (value truncated to the access size).
func TestPropertyAddrSpaceRoundTrip(t *testing.T) {
	m := NewAddrSpace()
	f := func(addr uint64, val uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr %= 1 << 30
		m.Write(addr, val, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = (uint64(1) << (8 * size)) - 1
		}
		return m.Read(addr, size) == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCacheBasic(t *testing.T) {
	c, err := NewCache("l1", 1024, 2, 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	if c.LineSize() != 64 {
		t.Error("line size")
	}
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) || !c.Access(0x13f) {
		t.Error("warm same-line access missed")
	}
	if c.Access(0x140) {
		t.Error("adjacent line hit when cold")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate %v", s.HitRate())
	}
	if !c.Probe(0x100) || c.Probe(0x100000) {
		t.Error("probe wrong")
	}
	c.Reset()
	if c.Stats().Accesses != 0 || c.Probe(0x100) {
		t.Error("reset incomplete")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 1 set of 64-byte lines: size = 128.
	c, err := NewCache("tiny", 128, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x000) // A
	c.Access(0x040) // B
	c.Access(0x000) // A again: A is MRU
	c.Access(0x080) // C: evicts B (LRU)
	if !c.Probe(0x000) {
		t.Error("A evicted, expected B")
	}
	if c.Probe(0x040) {
		t.Error("B survived, expected eviction")
	}
	if !c.Probe(0x080) {
		t.Error("C not resident")
	}
}

func TestCacheConfigErrors(t *testing.T) {
	if _, err := NewCache("x", 100, 2, 48, 1); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := NewCache("x", 100, 0, 64, 1); err == nil {
		t.Error("zero associativity accepted")
	}
	if _, err := NewCache("x", 100, 2, 64, 1); err == nil {
		t.Error("indivisible size accepted")
	}
}

func TestDRAMQueueing(t *testing.T) {
	d := NewDRAM(300, 32)
	// First 128-byte fill: 4 cycles occupancy + 300 latency.
	if got := d.Access(0, 128); got != 304 {
		t.Errorf("first access latency %d", got)
	}
	// Second fill issued same cycle queues behind the first.
	if got := d.Access(0, 128); got != 308 {
		t.Errorf("queued access latency %d", got)
	}
	// An access issued after the device drained sees no queueing.
	if got := d.Access(100, 128); got != 304 {
		t.Errorf("drained access latency %d", got)
	}
	s := d.Stats()
	if s.Accesses != 3 || s.BusyCycles != 12 {
		t.Errorf("stats %+v", s)
	}
	d.Reset()
	if d.Stats().Accesses != 0 {
		t.Error("reset incomplete")
	}
	// Zero bandwidth is clamped.
	d2 := NewDRAM(10, 0)
	if got := d2.Access(0, 16); got < 10 {
		t.Errorf("clamped bandwidth latency %d", got)
	}
}

// Property: cache contains at most size/lineSize distinct lines, and a
// just-accessed line always probes resident.
func TestPropertyCacheResidency(t *testing.T) {
	c, err := NewCache("p", 4096, 4, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Probe(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPageWinUnmappedLoad(t *testing.T) {
	m := NewAddrSpace()
	pw := NewPageWin(m)
	for _, size := range []uint64{1, 2, 4, 8} {
		if got := pw.Load(0x2000+size, size); got != 0 {
			t.Errorf("unmapped %d-byte load = %#x, want 0", size, got)
		}
	}
	if m.Pages() != 0 {
		t.Errorf("unmapped load materialised %d page(s)", m.Pages())
	}
}

func TestPageWinStoreMaterialises(t *testing.T) {
	m := NewAddrSpace()
	pw := NewPageWin(m)
	// A load caches the page as unmapped; the store must still land.
	pw.Load(0x3008, 8)
	pw.Store(0x3008, 0x1122334455667788, 8)
	pw.Store(0x3010, 0xabcd, 2)
	if m.Pages() != 1 {
		t.Fatalf("store mapped %d page(s), want 1", m.Pages())
	}
	if got := m.Read(0x3008, 8); got != 0x1122334455667788 {
		t.Errorf("Read after window store = %#x", got)
	}
	if got := pw.Load(0x300c, 4); got != 0x11223344 {
		t.Errorf("window load after store = %#x", got)
	}
	if got := pw.Load(0x3010, 1); got != 0xcd {
		t.Errorf("1-byte window load = %#x", got)
	}
}

func TestPageWinStraddle(t *testing.T) {
	m := NewAddrSpace()
	pw := NewPageWin(m)
	pw.Store(0x0ffd, 0x0102030405060708, 8) // bytes 0xffd..0x1004
	if m.Pages() != 2 {
		t.Fatalf("straddling store mapped %d page(s), want 2", m.Pages())
	}
	if got := pw.Load(0x0ffd, 8); got != 0x0102030405060708 {
		t.Errorf("straddling window load = %#x", got)
	}
	if got, want := pw.Load(0x0ffe, 4), m.Read(0x0ffe, 4); got != want || got != 0x04050607 {
		t.Errorf("straddling 4-byte load = %#x, Read = %#x", got, want)
	}
}

func TestPageWinInvalidatedByStraddlingStore(t *testing.T) {
	m := NewAddrSpace()
	pw := NewPageWin(m)
	// Cache page 0x1000 as unmapped, then materialise it behind the
	// cache with a store straddling 0x0fff/0x1000.
	if got := pw.Load(0x1000, 4); got != 0 {
		t.Fatalf("unmapped load = %#x", got)
	}
	pw.Store(0x0ffe, 0xaabbccdd, 4)
	if got := pw.Load(0x1000, 2); got != 0xaabb {
		t.Errorf("load after straddling store = %#x, want 0xaabb (stale window)", got)
	}
}
