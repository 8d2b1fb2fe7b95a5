package mem

import "encoding/binary"

// PageWin caches one AddrSpace page window across the lanes of a single
// warp memory instruction: consecutive lanes overwhelmingly touch the
// same page, so the per-access page-map lookup is amortised to one per
// page transition. A PageWin lives for one instruction, during which
// nothing but the window itself may write the address space (its
// page-straddling store is the lone exception, handled by invalidation).
// Both execution tiers' LSUs use it for global and shared memory.
type PageWin struct {
	as   *AddrSpace
	base uint64 // page base address of the cached window
	win  []byte // nil when the page is unmapped (loads read zero)
	ok   bool
}

// NewPageWin returns an empty window cache over as.
func NewPageWin(as *AddrSpace) PageWin { return PageWin{as: as} }

// Load mirrors AddrSpace.Read for in-page accesses via the cached
// window, falling back to Read for page-straddling ones. An unmapped
// page reads as zero and is not materialised.
func (pw *PageWin) Load(addr, size uint64) uint64 {
	base := addr &^ pageMask
	off := addr - base
	if off+size <= pageSize {
		if !pw.ok || base != pw.base {
			pw.win = pw.as.PageWindow(base, false)
			pw.base, pw.ok = base, true
		}
		if pw.win == nil {
			return 0
		}
		w := pw.win[off:]
		switch size {
		case 1:
			return uint64(w[0])
		case 2:
			return uint64(binary.LittleEndian.Uint16(w))
		case 4:
			return uint64(binary.LittleEndian.Uint32(w))
		case 8:
			return binary.LittleEndian.Uint64(w)
		}
	}
	return pw.as.Read(addr, int(size))
}

// Store mirrors AddrSpace.Write likewise; a nil cached window is
// refetched with allocation since stores materialise pages.
func (pw *PageWin) Store(addr, val, size uint64) {
	base := addr &^ pageMask
	off := addr - base
	if off+size <= pageSize {
		if !pw.ok || base != pw.base || pw.win == nil {
			pw.win = pw.as.PageWindow(base, true)
			pw.base, pw.ok = base, true
		}
		w := pw.win[off:]
		switch size {
		case 1:
			w[0] = byte(val)
			return
		case 2:
			binary.LittleEndian.PutUint16(w, uint16(val))
			return
		case 4:
			binary.LittleEndian.PutUint32(w, uint32(val))
			return
		case 8:
			binary.LittleEndian.PutUint64(w, val)
			return
		}
	}
	// Straddling store: the slow path may materialise the cached page
	// behind the window cache, so drop the cache.
	pw.as.Write(addr, val, int(size))
	pw.ok = false
}
