package core

import (
	"fmt"
	"math/bits"
)

// Architectural constants of the LMI pointer format (paper §V-A, Fig. 6).
const (
	// ExtentFieldBits is the width of the extent field: a 5-bit encoding is
	// "a practical choice for expressing buffer size information" (§V-A).
	ExtentFieldBits = 5

	// ExtentShift is the bit position of the extent field. The extent
	// occupies the top five most significant bits of a 64-bit pointer.
	ExtentShift = 64 - ExtentFieldBits // 59

	// AddrMask selects the address portion of a pointer (everything below
	// the extent field). With 5-level paging the architectural virtual
	// address space is 57 bits, so the 59-bit address field still leaves
	// headroom for future address-space growth (§IV-B2).
	AddrMask = (uint64(1) << ExtentShift) - 1

	// DefaultMinShift is log2 of the default minimum allocation size K.
	// K = 256 bytes, "leveraging the default 256-byte GPU allocation size"
	// (§V-A1).
	DefaultMinShift = 8

	// MaxExtent is the largest encodable extent value (2^5 - 1 = 31),
	// corresponding to a 256 GiB buffer at the default K.
	MaxExtent = Extent(1<<ExtentFieldBits - 1)
)

// Extent is the 5-bit size-class exponent stored in a pointer's upper bits.
//
// Extent 0 marks an invalid pointer (freed, out of scope, or clobbered by
// an out-of-bounds arithmetic operation). Extent e >= 1 denotes a buffer of
// size K * 2^(e-1) bytes, aligned to its own size, where K is the codec's
// minimum allocation size (256 bytes by default), so sizes range from
// 256 B (extent 1) to 256 GiB (extent 31).
type Extent uint8

// ExtentInvalid is the extent value of an invalid pointer. The EC raises a
// fault when a pointer with this extent is dereferenced.
const ExtentInvalid = Extent(0)

// Pointer is a 64-bit LMI pointer: 5 extent bits over a 59-bit virtual
// address. In hardware a Pointer occupies two 32-bit physical registers
// (Fig. 6); this package, like the simulator, manipulates the 64-bit
// logical value directly.
type Pointer uint64

// Codec describes an LMI pointer encoding configuration.
//
// The zero value is not useful; use DefaultCodec or NewCodec. MinShift is
// log2 of the minimum allocation size K: smaller buffers are rounded up to
// K, and extent e covers sizes up to K*2^(e-1). MaxPractical optionally
// caps the largest extent the allocator will produce (mirroring
// cudaDeviceSetLimit-style device restrictions, §IV-A3); extents above the
// cap are repurposed as debug codes.
type Codec struct {
	// MinShift is log2(K), the minimum allocation size exponent.
	MinShift uint

	// MaxPractical is the largest extent that denotes a real buffer size.
	// Extents in (MaxPractical, MaxExtent] encode debug information (see
	// DebugExtent). If zero, MaxExtent is used and no debug extents exist.
	MaxPractical Extent
}

// DefaultCodec is the paper's configuration: K = 256 B, all 31 nonzero
// extents usable (256 B through 256 GiB).
var DefaultCodec = Codec{MinShift: DefaultMinShift}

// NewCodec returns a codec with minimum allocation size 2^minShift bytes
// and an optional practical-extent cap (0 means no cap).
func NewCodec(minShift uint, maxPractical Extent) (Codec, error) {
	if minShift == 0 || minShift >= ExtentShift {
		return Codec{}, fmt.Errorf("core: minShift %d out of range (1..%d)", minShift, ExtentShift-1)
	}
	if maxPractical > MaxExtent {
		return Codec{}, fmt.Errorf("core: maxPractical %d exceeds MaxExtent %d", maxPractical, MaxExtent)
	}
	return Codec{MinShift: minShift, MaxPractical: maxPractical}, nil
}

func (c Codec) maxPractical() Extent {
	if c.MaxPractical == 0 {
		return MaxExtent
	}
	return c.MaxPractical
}

// ExtentForSize computes the extent value for a requested allocation size
// using the paper's encoding (§V-A1):
//
//	E = ceil(max(log2 K, log2 S)) - log2 K + 1
//
// so a request of up to K bytes gets extent 1, up to 2K gets extent 2, and
// so on. It returns an error if size is zero or exceeds the largest
// practical size class.
func (c Codec) ExtentForSize(size uint64) (Extent, error) {
	if size == 0 {
		return 0, fmt.Errorf("core: zero-size allocation")
	}
	// ceil(log2(size)) for size >= 1.
	lg := uint(bits.Len64(size - 1))
	if lg < c.MinShift {
		lg = c.MinShift
	}
	e := Extent(lg - c.MinShift + 1)
	if e > c.maxPractical() {
		return 0, fmt.Errorf("core: allocation of %d bytes exceeds largest size class (extent %d, %d bytes)",
			size, c.maxPractical(), c.SizeForExtent(c.maxPractical()))
	}
	return e, nil
}

// SizeForExtent returns the buffer size (and alignment) of a size class:
// K * 2^(e-1). It returns 0 for the invalid extent.
func (c Codec) SizeForExtent(e Extent) uint64 {
	if e == ExtentInvalid || e > MaxExtent {
		return 0
	}
	return uint64(1) << (c.MinShift + uint(e) - 1)
}

// ModifiableMask returns the mask of pointer bits that intra-buffer
// arithmetic may legitimately change for extent e: the low
// log2(size) = MinShift + e - 1 bits (§V-A2). All bits above the mask —
// the unmodifiable (UM) bits and the extent field — must stay constant for
// the pointer's lifetime.
func (c Codec) ModifiableMask(e Extent) uint64 {
	if e == ExtentInvalid {
		return 0
	}
	return c.SizeForExtent(e) - 1
}

// Encode builds a tagged pointer from a base virtual address and extent.
// The address must fit in the 59-bit address field and be aligned to the
// size class, which the 2^n-aligned allocator guarantees by construction.
func (c Codec) Encode(addr uint64, e Extent) (Pointer, error) {
	if addr&^AddrMask != 0 {
		return 0, fmt.Errorf("core: address %#x exceeds %d-bit address field", addr, ExtentShift)
	}
	if e == ExtentInvalid || e > c.maxPractical() {
		return 0, fmt.Errorf("core: extent %d not encodable (practical max %d)", e, c.maxPractical())
	}
	if addr&c.ModifiableMask(e) != 0 {
		return 0, fmt.Errorf("core: address %#x not aligned to size class %d (%d bytes)",
			addr, e, c.SizeForExtent(e))
	}
	return Pointer(uint64(e)<<ExtentShift | addr), nil
}

// DebugExtent encodes a debugging code into an extent value above the
// practical cap (§IV-A3: "Extent values that exceed practical buffer sizes
// can be repurposed to encode debugging information, such as error types").
// code 0 is the first debug slot. It fails if the codec has no reserved
// debug extents or the code does not fit.
func (c Codec) DebugExtent(code uint8) (Extent, error) {
	base := c.maxPractical() + 1
	if base > MaxExtent {
		return 0, fmt.Errorf("core: codec reserves no debug extents")
	}
	e := Extent(uint8(base) + code)
	if e > MaxExtent {
		return 0, fmt.Errorf("core: debug code %d exceeds reserved extent range %d..%d", code, base, MaxExtent)
	}
	return e, nil
}

// IsDebugExtent reports whether e encodes debug information rather than a
// buffer size class.
func (c Codec) IsDebugExtent(e Extent) bool {
	return e > c.maxPractical() && e <= MaxExtent
}

// Extent extracts the pointer's 5-bit extent field.
func (p Pointer) Extent() Extent { return Extent(uint64(p) >> ExtentShift) }

// Addr returns the 59-bit virtual address carried by the pointer — the
// value the LSU uses for the actual memory access after the extent bits
// are stripped.
func (p Pointer) Addr() uint64 { return uint64(p) & AddrMask }

// Valid reports whether the pointer has a nonzero extent. The EC permits
// dereferences only of valid pointers.
func (p Pointer) Valid() bool { return p.Extent() != ExtentInvalid }

// Invalidate clears the extent field, producing the invalid form of the
// pointer. This is the hardware action on OCU-detected overflow and the
// compiler-inserted action after free() or scope exit (§VIII).
func (p Pointer) Invalidate() Pointer { return p & Pointer(AddrMask) }

// WithExtent returns the pointer with its extent field replaced.
func (p Pointer) WithExtent(e Extent) Pointer {
	return Pointer(uint64(e)<<ExtentShift | p.Addr())
}

// Base recovers the buffer's base address from any interior pointer: the
// address with the modifiable bits cleared (§IV-A1). For an invalid
// pointer it returns the raw address.
func (c Codec) Base(p Pointer) uint64 {
	return p.Addr() &^ c.ModifiableMask(p.Extent())
}

// Limit returns one past the buffer's last byte (base + size class).
func (c Codec) Limit(p Pointer) uint64 {
	return c.Base(p) + c.SizeForExtent(p.Extent())
}

// InBounds reports whether addr lies inside the buffer referenced by p.
func (c Codec) InBounds(p Pointer, addr uint64) bool {
	if !p.Valid() {
		return false
	}
	return addr >= c.Base(p) && addr < c.Limit(p)
}

// UM returns the pointer's unmodifiable bits: the address bits above the
// modifiable region, shifted down so they form a compact buffer identifier.
// Because only one live buffer can occupy a given 2^n-aligned region, the
// (extent, UM) pair uniquely identifies a buffer and serves as the key for
// pointer liveness tracking (§XII-C).
func (c Codec) UM(p Pointer) uint64 {
	e := p.Extent()
	if e == ExtentInvalid {
		return p.Addr()
	}
	shift := c.MinShift + uint(e) - 1
	return p.Addr() >> shift
}

// String formats the pointer showing its fields.
func (p Pointer) String() string {
	return fmt.Sprintf("ptr{extent=%d addr=%#x}", p.Extent(), p.Addr())
}
