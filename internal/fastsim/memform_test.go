package fastsim_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// Register plan of the memory-form kernels: R0 = tid, R1 = out,
// R2 = in, R3 the store/atomic data, R4 the page base, R5 the seed
// value, R8 the destination (seeded with a sentinel so guard-false
// lanes show their old value), R9 an RZ witness, R10 the lane address
// (biased by -memOff), R12 the read-back, R13 the thread's output
// address, R14 the value loaded just before the instruction under test.
const (
	memDst      isa.Reg = 8
	memWitness  isa.Reg = 9
	memAddr     isa.Reg = 10
	memReadback isa.Reg = 12
	memOutAddr  isa.Reg = 13
	memPreload  isa.Reg = 14
	memNumRegs          = 15

	// memOff is the signed offset every memory instruction of the kernel
	// carries in its immediate, so the offset path is exercised too.
	memOff = -24
	// memN is the element count: in and out are memN*4 bytes, enough for
	// a page-aligned base plus the straddling lane addresses in in.
	memN = 4096
)

// memKind selects where a memory-form case's lane addresses fall.
type memKind int

const (
	memAligned          memKind = iota // base + tid*8 in a mapped page
	memStraddle                        // lane 8 straddles a 4 KiB page boundary
	memUnmapped                        // a page nothing wrote before
	memUnmappedStraddle                // two such pages, lane 8 straddling
	memUnit                            // base + tid*4 in a mapped page
	memUnitCross                       // base + tid*4, lane 8 opening the next page
	memUnitUnmapped                    // base + tid*4 in a page nothing wrote before
)

func (k memKind) String() string {
	return [...]string{"aligned", "straddle", "unmapped", "unmapped-straddle",
		"unit", "unit-cross", "unit-unmapped"}[k]
}

func (k memKind) unmapped() bool {
	return k == memUnmapped || k == memUnmappedStraddle || k == memUnitUnmapped
}

// unit reports whether the kind's lane addresses are unit-stride
// (base + tid*4), the compiled tier's single-page fast path when the
// access is 4 bytes wide.
func (k memKind) unit() bool { return k >= memUnit }

// memLoadOp is the plain load of a memory space.
func memLoadOp(space isa.Space) isa.Opcode {
	switch space {
	case isa.SpaceGlobal:
		return isa.LDG
	case isa.SpaceShared:
		return isa.LDS
	}
	return isa.LDL
}

// memStoreOp is the plain store of a memory space.
func memStoreOp(space isa.Space) isa.Opcode {
	switch space {
	case isa.SpaceGlobal:
		return isa.STG
	case isa.SpaceShared:
		return isa.STS
	}
	return isa.STL
}

// memKernel wraps one memory instruction under test. Each lane's
// address is base + tid*8 (+4031 for the straddling kinds, which puts
// lane 8 at the last byte of a page), or base + tid*4 for the
// unit-stride kinds (+4064 for memUnitCross, which puts lane 8 at the
// start of the next page), where base is a page-aligned
// address inside in for global memory, 0 for shared, 0x10000 for
// local, and an address nothing maps for the unmapped kinds. Mapped
// shared and local addresses are first seeded with an 8-byte store (a
// 4-byte one for the unit-stride kinds, whose lanes are 4 bytes apart).
// Every case then loads the lane's bytes (on the unmapped kinds, the
// load from an unmapped page that the instruction under test follows),
// runs the instruction, reads the lane's bytes back, and stores the
// destination, the read-back, an RZ witness and the earlier load as
// four 64-bit words per thread into out.
func memKernel(name string, test isa.Instr, kind memKind) *isa.Program {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	r := func(a, b isa.Reg) [3]isa.Reg { return [3]isa.Reg{a, b, isa.RZ} }
	w64 := uint8(isa.AuxW64)
	space := test.Op.MemSpace()
	size := test.Aux & 7
	instrs := []isa.Instr{
		{Op: isa.S2R, Dst: 0, Src: rz, Aux: uint8(isa.SRTidX)},
		{Op: isa.LDC, Dst: 1, Src: rz, Imm: int32(compiler.ParamConstBase + 8), Aux: 3},
		{Op: isa.LDC, Dst: 2, Src: rz, Imm: int32(compiler.ParamConstBase), Aux: 3},
		// R3 = (tid * 0x3b9aca07) << 21 ^ tid, R5 = R3 ^ 0x13579bdf.
		{Op: isa.IMUL, Dst: 3, Src: r(0, isa.RZ), HasImm: true, Imm: 0x3b9aca07},
		{Op: isa.SHL, Dst: 3, Src: r(3, isa.RZ), HasImm: true, Imm: 21, Aux: w64},
		{Op: isa.XOR, Dst: 3, Src: r(3, 0), Aux: w64},
		{Op: isa.XOR, Dst: 5, Src: r(3, isa.RZ), HasImm: true, Imm: 0x13579bdf, Aux: w64},
		// P0 = (tid & 3) < 2, P1 = 0 < -1 (false everywhere).
		{Op: isa.AND, Dst: memAddr, Src: r(0, isa.RZ), HasImm: true, Imm: 3},
		{Op: isa.SETP, Dst: 0, Src: r(memAddr, isa.RZ), HasImm: true, Imm: 2, Aux: uint8(isa.CmpLT)},
		{Op: isa.SETP, Dst: 1, Src: rz, HasImm: true, Imm: -1, Aux: uint8(isa.CmpLT)},
		// R8 = R3 ^ 0x5a5a5a5a (the sentinel).
		{Op: isa.XOR, Dst: memDst, Src: r(3, isa.RZ), HasImm: true, Imm: 0x5a5a5a5a, Aux: w64},
	}
	switch {
	case kind.unmapped() && space == isa.SpaceGlobal:
		// 0x20_0000_0000: between the global arena and the device heap.
		instrs = append(instrs,
			isa.Instr{Op: isa.MOV, Dst: 4, Src: rz, HasImm: true, Imm: 0x20},
			isa.Instr{Op: isa.SHL, Dst: 4, Src: r(4, isa.RZ), HasImm: true, Imm: 32, Aux: w64})
	case kind.unmapped():
		instrs = append(instrs, isa.Instr{Op: isa.MOV, Dst: 4, Src: rz, HasImm: true, Imm: 0x40000})
	case space == isa.SpaceGlobal:
		// R4 = (in + 4095) &^ 4095.
		instrs = append(instrs,
			isa.Instr{Op: isa.IADD, Dst: 4, Src: r(2, isa.RZ), HasImm: true, Imm: 4095, Aux: w64},
			isa.Instr{Op: isa.AND, Dst: 4, Src: r(4, isa.RZ), HasImm: true, Imm: -4096, Aux: w64})
	case space == isa.SpaceShared:
		instrs = append(instrs, isa.Instr{Op: isa.MOV, Dst: 4, Src: rz, HasImm: true, Imm: 0})
	default:
		instrs = append(instrs, isa.Instr{Op: isa.MOV, Dst: 4, Src: rz, HasImm: true, Imm: 0x10000})
	}
	bias := int32(-memOff)
	switch kind {
	case memStraddle, memUnmappedStraddle:
		bias += 4096 - 1 - 8*8
	case memUnitCross:
		bias += 4096 - 4*8
	}
	stride, seed := int32(3), uint8(3) // log2 of the lane stride and the seed size
	if kind.unit() {
		stride, seed = 2, 2
	}
	instrs = append(instrs,
		isa.Instr{Op: isa.SHL, Dst: memAddr, Src: r(0, isa.RZ), HasImm: true, Imm: stride, Aux: w64},
		isa.Instr{Op: isa.IADD3, Dst: memAddr, Src: [3]isa.Reg{memAddr, 4, isa.RZ}, HasImm: true, Imm: bias, Aux: w64})
	if !kind.unmapped() && space != isa.SpaceGlobal {
		instrs = append(instrs, isa.Instr{Op: memStoreOp(space), Dst: isa.RZ, Src: r(memAddr, 5), Imm: memOff, Aux: seed})
	}
	instrs = append(instrs, isa.Instr{Op: memLoadOp(space), Dst: memPreload, Src: r(memAddr, isa.RZ), Imm: memOff, Aux: size})
	for i := range instrs {
		instrs[i].Pred = isa.PT
	}
	instrs = append(instrs, test)
	pt := []isa.Instr{
		{Op: memLoadOp(space), Dst: memReadback, Src: r(memAddr, isa.RZ), Imm: memOff, Aux: size},
		// R9 = RZ + tid: reads RZ after the instruction under test.
		{Op: isa.IADD, Dst: memWitness, Src: r(isa.RZ, 0), Aux: w64},
		{Op: isa.SHL, Dst: memOutAddr, Src: r(0, isa.RZ), HasImm: true, Imm: 5, Aux: w64},
		{Op: isa.IADD, Dst: memOutAddr, Src: r(1, memOutAddr), Aux: w64},
		{Op: isa.STG, Dst: isa.RZ, Src: r(memOutAddr, memDst), Aux: 3},
		{Op: isa.STG, Dst: isa.RZ, Src: r(memOutAddr, memReadback), Imm: 8, Aux: 3},
		{Op: isa.STG, Dst: isa.RZ, Src: r(memOutAddr, memWitness), Imm: 16, Aux: 3},
		{Op: isa.STG, Dst: isa.RZ, Src: r(memOutAddr, memPreload), Imm: 24, Aux: 3},
		{Op: isa.EXIT, Dst: isa.RZ, Src: rz},
	}
	for i := range pt {
		pt[i].Pred = isa.PT
	}
	p := prog(name, memNumRegs, append(instrs, pt...))
	p.SharedSize = 8192
	return p
}

// memCase is one instruction under test in TestMemoryOperandForms.
type memCase struct {
	name string
	in   isa.Instr
	kind memKind
	// invalid marks a form isa.Instr.Validate must refuse; it is not
	// launched.
	invalid bool
}

// memCases builds the table: every memory opcode at every access size
// (atomics only at 4 bytes, the one size isa.Instr.Validate accepts for
// them), loads and atomics with and without the sign-extension flag
// (which Validate refuses on atomics: no tier sign-extends their old
// value) and with a register or RZ destination, each under an unconditional guard,
// a guard true on some lanes and one true on none, at aligned,
// page-straddling, unmapped and unmapped-straddling addresses. The
// 4-byte forms also run at unit-stride addresses: inside one mapped
// page, across a page boundary and inside one unmapped page. (Wider
// unit-stride accesses would overlap the neighbouring lane's bytes,
// and the two warps of a block order such writes differently on the
// two tiers.)
func memCases() []memCase {
	var out []memCase
	add := func(name string, in isa.Instr, invalid bool) {
		kinds := memUnmappedStraddle
		if in.AccSize() == 4 {
			kinds = memUnitUnmapped
		}
		for _, g := range []isa.PredReg{isa.PT, 0, 1} {
			for k := memAligned; k <= kinds; k++ {
				c := in
				c.Pred = g
				out = append(out, memCase{fmt.Sprintf("%s/%s/%s", name, g, k), c, k, invalid})
			}
		}
	}
	for _, op := range []isa.Opcode{isa.LDG, isa.STG, isa.LDS, isa.STS, isa.LDL, isa.STL, isa.ATOMG, isa.ATOMS} {
		atomic := op == isa.ATOMG || op == isa.ATOMS
		for lg := uint8(0); lg < 4; lg++ {
			if atomic && lg != 2 {
				continue
			}
			in := isa.Instr{Op: op, Dst: isa.RZ, Src: [3]isa.Reg{memAddr, 3, isa.RZ}, Imm: memOff, Aux: lg}
			if op.IsStore() && !atomic {
				add(fmt.Sprintf("%s.%d", op, 8<<lg), in, false)
				continue
			}
			for _, sx := range []uint8{0, isa.AuxSignExt} {
				for _, dst := range []isa.Reg{memDst, isa.RZ} {
					c := in
					c.Aux |= sx
					c.Dst = dst
					add(fmt.Sprintf("%s.%d/sx=%v/%s", op, 8<<lg, sx != 0, dst), c, atomic && sx != 0)
				}
			}
		}
	}
	return out
}

// byteMem is the memory of memModel: a byte per address, zero where
// nothing was written.
type byteMem map[uint64]byte

func (m byteMem) load(addr, size uint64) uint64 {
	var v uint64
	for i := uint64(0); i < size; i++ {
		v |= uint64(m[addr+i]) << (8 * i)
	}
	return v
}

func (m byteMem) store(addr, v, size uint64) {
	for i := uint64(0); i < size; i++ {
		m[addr+i] = byte(v >> (8 * i))
	}
}

// memModel computes the in and out bytes memKernel leaves for case c
// when run by block threads, in the layout launchTier returns them,
// from the kernel's definition alone: inBase is in's address. The
// lanes' accesses never overlap (each lane owns its stride of 8 bytes,
// or of 4 for the 4-byte unit-stride kinds), so the threads run in any
// order.
func memModel(c memCase, block int, inBase uint64) []byte {
	space, kind := c.in.Op.MemSpace(), c.kind
	global, shared := byteMem{}, byteMem{}
	init := inBytes(memN * 4)
	for i, b := range init {
		global[inBase+uint64(i)] = b
	}
	var base uint64
	switch {
	case kind.unmapped() && space == isa.SpaceGlobal:
		base = 0x20 << 32
	case kind.unmapped():
		base = 0x40000
	case space == isa.SpaceGlobal:
		base = (inBase + 4095) &^ 4095
	case space == isa.SpaceLocal:
		base = 0x10000
	}
	switch kind {
	case memStraddle, memUnmappedStraddle:
		base += 4096 - 1 - 8*8
	case memUnitCross:
		base += 4096 - 4*8
	}
	stride := uint64(8)
	if kind.unit() {
		stride = 4
	}
	size := c.in.AccSize()
	out := make([]byte, len(init))
	for tid := 0; tid < block; tid++ {
		m := byteMem{} // the thread's local memory
		switch space {
		case isa.SpaceGlobal:
			m = global
		case isa.SpaceShared:
			m = shared
		}
		addr := base + uint64(tid)*stride
		// memKernel's R3 and the sentinel it seeds R8 with.
		r3 := uint64(int64(int32(uint32(tid)*0x3b9aca07)))<<21 ^ uint64(tid)
		dst := r3 ^ 0x5a5a5a5a
		if !kind.unmapped() && space != isa.SpaceGlobal {
			m.store(addr, r3^0x13579bdf, stride) // the seed
		}
		preload := m.load(addr, size)
		if c.in.Pred == isa.PT || c.in.Pred == 0 && tid&3 < 2 {
			v := m.load(addr, size)
			switch c.in.Op {
			case isa.ATOMG, isa.ATOMS:
				// v, the old value, is zero-extended.
				m.store(addr, uint64(uint32(v)+uint32(r3)), size)
			case isa.STG, isa.STS, isa.STL:
				m.store(addr, r3, size)
			default:
				if c.in.SignExtend() && size == 4 {
					v = uint64(int64(int32(uint32(v))))
				}
			}
			if c.in.Dst == memDst { // a load's value or an atomic's old one
				dst = v
			}
		}
		for i, w := range []uint64{dst, m.load(addr, size), uint64(tid), preload} {
			binary.LittleEndian.PutUint64(out[32*tid+8*i:], w)
		}
	}
	img := make([]byte, 0, 2*len(init))
	for i := range init {
		img = append(img, global[inBase+uint64(i)])
	}
	return append(img, out...)
}

// TestMemoryOperandForms pins both tiers' LSUs against memModel, byte
// for byte, and against each other: each case runs one memory
// instruction in a 48-thread block (so the second warp is partial), and
// the final in and out bytes hold every thread's destination, read-back
// and earlier load (and, for global memory, the stored bytes
// themselves); diffFunctional compares the statistics.
func TestMemoryOperandForms(t *testing.T) {
	const block = 48
	for _, c := range memCases() {
		if err := c.in.Validate(); c.invalid {
			if err == nil {
				t.Fatalf("%s: validates, want a rejection", c.name)
			}
			continue
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		p := memKernel(c.name, c.in, c.kind)
		run := func(tier fastsim.Tier) (*sim.KernelStats, []byte, uint64) {
			return launchTier(t, tier, p, workloads.VariantBase, sim.ScaledConfig(1), 1, block, memN)
		}
		cycle, cmem, inBase := run(fastsim.TierCycle)
		fast, fmem, _ := run(fastsim.TierCompiled)
		diffFunctional(t, c.name, cycle, fast)
		if cycle.Halted || len(cycle.Faults) != 0 {
			t.Fatalf("%s: unexpected halt/faults: %v", c.name, cycle.Faults)
		}
		want := memModel(c, block, inBase)
		diffMem(t, c.name, "model", want, "cycle", cmem)
		diffMem(t, c.name, "model", want, "compiled", fmem)
		diffMem(t, c.name, "cycle", cmem, "compiled", fmem)
	}
}
