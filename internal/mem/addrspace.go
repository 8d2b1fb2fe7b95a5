// Package mem provides the memory substrate of the GPU simulator: sparse
// byte-addressable address spaces for functional state, a set-associative
// cache timing model, and a DRAM latency/bandwidth model.
//
// The heterogeneous GPU memory system (paper §II-A) is assembled from
// these pieces by the simulator: one global space shared by all SMs and
// backed by the L1/L2/DRAM hierarchy, one shared-memory space per resident
// block with L1-class latency, per-thread local memory that lives in DRAM
// but is translated to distinct backing locations, and a read-only
// constant bank.
package mem

import "encoding/binary"

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// AddrSpace is a sparse, byte-addressable, little-endian memory. Unmapped
// bytes read as zero; pages are mapped on first write. It is the
// functional half of the memory model: timing is handled separately by
// Cache and DRAM.
type AddrSpace struct {
	pages map[uint64]*[pageSize]byte
	// free holds the page frames Reset unmapped; mapping a page reuses
	// one, zeroed, before allocating a new one.
	free []*[pageSize]byte
}

// NewAddrSpace returns an empty address space.
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *AddrSpace) page(addr uint64, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := m.pages[pn]
	if p == nil && alloc {
		if n := len(m.free); n > 0 {
			p = m.free[n-1]
			m.free = m.free[:n-1]
			clear(p[:])
		} else {
			p = new([pageSize]byte)
		}
		m.pages[pn] = p
	}
	return p
}

// Reset unmaps every page, keeping the frames for reuse: afterwards the
// space reads as zero everywhere, like a new one, but its next writes
// map recycled frames instead of allocating. The simulators reset a
// block's shared and local memory this way when the next block reuses
// its slot.
func (m *AddrSpace) Reset() {
	for _, p := range m.pages {
		m.free = append(m.free, p)
	}
	clear(m.pages)
}

// ReadBytes copies size bytes at addr into dst semantics, returning them
// as a fresh slice.
func (m *AddrSpace) ReadBytes(addr uint64, size int) []byte {
	out := make([]byte, size)
	m.readInto(addr, out)
	return out
}

// readInto fills dst with the bytes at addr; unmapped bytes read as zero.
func (m *AddrSpace) readInto(addr uint64, dst []byte) {
	for i := 0; i < len(dst); {
		a := addr + uint64(i)
		off := int(a & pageMask)
		n := min(pageSize-off, len(dst)-i)
		if p := m.page(a, false); p != nil {
			copy(dst[i:i+n], p[off:off+n])
		} else {
			clear(dst[i : i+n])
		}
		i += n
	}
}

// WriteBytes stores src at addr.
func (m *AddrSpace) WriteBytes(addr uint64, src []byte) {
	for i := 0; i < len(src); {
		p := m.page(addr+uint64(i), true)
		off := int((addr + uint64(i)) & pageMask)
		n := pageSize - off
		if n > len(src)-i {
			n = len(src) - i
		}
		copy(p[off:off+n], src[i:i+n])
		i += n
	}
}

// Read loads a size-byte little-endian unsigned value (size 1, 2, 4 or 8).
func (m *AddrSpace) Read(addr uint64, size int) uint64 {
	// Fast path: access within one page. An unmapped page reads as zero.
	off := int(addr & pageMask)
	if off+size <= pageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	// A page-crossing read is assembled on the stack.
	var buf [8]byte
	m.readInto(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// Write stores the low size bytes of val at addr little-endian.
func (m *AddrSpace) Write(addr uint64, val uint64, size int) {
	p := m.page(addr, true)
	off := int(addr & pageMask)
	if off+size <= pageSize {
		switch size {
		case 1:
			p[off] = byte(val)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
			return
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.WriteBytes(addr, buf[:size])
}

// Pages returns the number of mapped pages (resident set, used for RSS
// accounting in fragmentation experiments).
func (m *AddrSpace) Pages() int { return len(m.pages) }

// PageWindowSize is the page granularity of PageWindow results.
const PageWindowSize = pageSize

// PageWindow returns the mapped backing bytes from addr to the end of
// its page, or nil when the page is unallocated (unmapped bytes read as
// zero; pass alloc to materialise the page for writing). It lets a
// tight caller — PageWin, which both execution tiers' LSUs use — batch
// the per-access page-map lookup across the many lanes of a warp that
// touch the same page: accesses that fit inside the window go straight
// to the returned slice with Read/Write's little-endian layout.
func (m *AddrSpace) PageWindow(addr uint64, alloc bool) []byte {
	p := m.page(addr, alloc)
	if p == nil {
		return nil
	}
	return p[addr&pageMask:]
}
