package chaos

import (
	"fmt"

	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/sim"
)

// Injection primitives: each takes a pristine artefact (tagged pointer,
// compiled program, mechanism) plus the trial's RNG and returns the
// perturbed artefact with a human-readable description of exactly what
// was corrupted, so undetected injections can be enumerated precisely.

// cloneProgram copies a program so its instructions can be mutated
// without touching the campaign's shared compile cache.
func cloneProgram(p *isa.Program) *isa.Program {
	q := *p
	q.Instrs = append([]isa.Instr(nil), p.Instrs...)
	q.StackBuffers = append([]isa.StackBuffer(nil), p.StackBuffers...)
	return &q
}

// HintedSites returns the instruction indices carrying the A hint — the
// candidate sites for a hint-drop injection. Empty for non-LMI
// compilations.
func HintedSites(p *isa.Program) []int {
	var hinted []int
	for i := range p.Instrs {
		if p.Instrs[i].Hint.A {
			hinted = append(hinted, i)
		}
	}
	return hinted
}

// DropHintAt returns a copy of p with the A/S microcode hints cleared on
// instruction idx — the OCU never sees that pointer operation. The
// static linter's negative corpus uses this deterministic form; the
// campaign picks the site by RNG.
func DropHintAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx].Hint = isa.Hint{}
	return q
}

// dropHint clears the A/S microcode hints on one randomly chosen hinted
// instruction — the OCU never sees that pointer operation. It returns
// nil when the program carries no hints (non-LMI compilation).
func dropHint(p *isa.Program, r *rng) (*isa.Program, string) {
	hinted := HintedSites(p)
	if len(hinted) == 0 {
		return nil, ""
	}
	idx := hinted[r.intn(len(hinted))]
	return DropHintAt(p, idx), fmt.Sprintf("A hint cleared on instr %d (%s)", idx, p.Instrs[idx].Op)
}

// spuriousHintOps are the plain integer-ALU opcodes a spurious
// Activation hint can be planted on: the set the simulator's shared
// integer path executes (predicate-writing SETP and SEL are excluded —
// their results never reach the OCU datapath).
var spuriousHintOps = map[isa.Opcode]bool{
	isa.IADD: true, isa.IADD3: true, isa.IMUL: true, isa.IMAD: true,
	isa.IMNMX: true, isa.SHL: true, isa.SHR: true,
	isa.AND: true, isa.OR: true, isa.XOR: true, isa.MOV: true,
}

// SpuriousSites returns the indices of unhinted integer-ALU
// instructions a spurious Activation hint can be planted on — the
// candidate sites for the spurious-hint injection.
func SpuriousSites(p *isa.Program) []int {
	var cands []int
	for i := range p.Instrs {
		if !p.Instrs[i].Hint.A && spuriousHintOps[p.Instrs[i].Op] {
			cands = append(cands, i)
		}
	}
	return cands
}

// PlantSpuriousHintAt returns a copy of p with the Activation hint set
// on instruction idx, making the OCU treat a data value as a pointer.
// The static linter's negative corpus uses this deterministic form.
func PlantSpuriousHintAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx].Hint = isa.Hint{A: true}
	return q
}

// spuriousHint sets the Activation hint on one randomly chosen unhinted
// integer instruction, making the OCU treat a data value as a pointer.
// Delayed termination should absorb this without a false positive.
func spuriousHint(p *isa.Program, r *rng) (*isa.Program, string) {
	cands := SpuriousSites(p)
	if len(cands) == 0 {
		return nil, ""
	}
	idx := cands[r.intn(len(cands))]
	return PlantSpuriousHintAt(p, idx), fmt.Sprintf("spurious A hint set on instr %d (%s)", idx, p.Instrs[idx].Op)
}

// ElideSites returns the indices of the memory instructions an E (elide)
// hint can legally be planted on — the candidate sites for the
// spurious-elide injection.
func ElideSites(p *isa.Program) []int {
	var cands []int
	for i := range p.Instrs {
		switch p.Instrs[i].Op {
		case isa.LDG, isa.STG, isa.LDL, isa.STL, isa.ATOMG:
			cands = append(cands, i)
		}
	}
	return cands
}

// PlantSpuriousElideAt returns a copy of p with the E hint set on
// instruction idx, making the LSU skip that access's extent check
// without any static proof backing the elision. The lint elide audit's
// negative corpus uses this deterministic form; the campaign picks the
// site by RNG.
func PlantSpuriousElideAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx].Hint.E = true
	return q
}

// PlantSpecMutationAt returns a copy of p with instruction idx's guard
// sense inverted — a minimal, always-valid mutation of a specialized
// residual that the certificate replay cannot have produced. The lint
// specialize audit's negative corpus uses it to pin a tampered
// residual to the exact instruction.
func PlantSpecMutationAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx].PredNeg = !q.Instrs[idx].PredNeg
	return q
}

// spuriousElide sets the E hint on one randomly chosen memory
// instruction. Landing on the oob victim's out-of-bounds store this
// suppresses the only check that would catch it; landing on an in-bounds
// access it is architecturally benign. It returns nil when the program
// has no memory instructions.
func spuriousElide(p *isa.Program, r *rng) (*isa.Program, string) {
	cands := ElideSites(p)
	if len(cands) == 0 {
		return nil, ""
	}
	idx := cands[r.intn(len(cands))]
	return PlantSpuriousElideAt(p, idx), fmt.Sprintf("spurious E hint set on instr %d (%s)", idx, p.Instrs[idx].Op)
}

// BarrierSites returns the instruction indices of unpredicated BAR
// instructions — the candidate sites for the drop-barrier injection.
func BarrierSites(p *isa.Program) []int {
	var bars []int
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.BAR && p.Instrs[i].Pred == isa.PT && !p.Instrs[i].PredNeg {
			bars = append(bars, i)
		}
	}
	return bars
}

// DropBarrierAt returns a copy of p with the BAR at instruction idx
// replaced by a NOP: the block-wide synchronization point disappears
// but every other instruction keeps its address, so the static
// analyzer's diagnostics and the dynamic oracle's records stay directly
// comparable against the mutated program.
func DropBarrierAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx] = isa.Instr{Op: isa.NOP, Pred: p.Instrs[idx].Pred}
	return q
}

// dropBarrier removes one randomly chosen barrier. It returns nil when
// the program has no unpredicated BAR.
func dropBarrier(p *isa.Program, r *rng) (*isa.Program, string) {
	bars := BarrierSites(p)
	if len(bars) == 0 {
		return nil, ""
	}
	idx := bars[r.intn(len(bars))]
	return DropBarrierAt(p, idx), fmt.Sprintf("BAR at instr %d replaced by NOP", idx)
}

// StrideSites returns the indices of SHL-by-2 instructions — the
// element-index-to-byte-offset scalings of 4-byte accesses, and the
// candidate sites for the stride-perturbation injection. The LMI
// pointer-tagging shifts use the extent-field width and never match.
func StrideSites(p *isa.Program) []int {
	var cands []int
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.SHL && p.Instrs[i].HasImm && p.Instrs[i].Imm == 2 {
			cands = append(cands, i)
		}
	}
	return cands
}

// PerturbStrideAt returns a copy of p with the SHL immediate at
// instruction idx lowered from 2 to 1: a 4-byte-stride index set
// becomes a 2-byte-stride one, so accesses that were provably disjoint
// across threads now overlap.
func PerturbStrideAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx].Imm = 1
	return q
}

// perturbStride halves one randomly chosen address-scaling shift. It
// returns nil when the program has no SHL-by-2.
func perturbStride(p *isa.Program, r *rng) (*isa.Program, string) {
	cands := StrideSites(p)
	if len(cands) == 0 {
		return nil, ""
	}
	idx := cands[r.intn(len(cands))]
	return PerturbStrideAt(p, idx), fmt.Sprintf("SHL imm 2 -> 1 on instr %d (stride collision)", idx)
}

// AtomicSharedSites returns the indices of ATOMS instructions — the
// candidate sites for the atomic-demotion injection.
func AtomicSharedSites(p *isa.Program) []int {
	var cands []int
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.ATOMS {
			cands = append(cands, i)
		}
	}
	return cands
}

// DemoteAtomicAt returns a copy of p with the ATOMS at instruction idx
// demoted to a plain STS: the read-modify-write loses its atomicity, so
// updates that commuted under ATOMS become racing plain writes. ATOMS
// and STS share the operand layout (Src[0] address, Src[1] data), so
// only the opcode and the now-meaningless destination change.
func DemoteAtomicAt(p *isa.Program, idx int) *isa.Program {
	q := cloneProgram(p)
	q.Instrs[idx].Op = isa.STS
	q.Instrs[idx].Dst = isa.RZ
	return q
}

// demoteAtomic demotes one randomly chosen shared-memory atomic. It
// returns nil when the program has no ATOMS.
func demoteAtomic(p *isa.Program, r *rng) (*isa.Program, string) {
	cands := AtomicSharedSites(p)
	if len(cands) == 0 {
		return nil, ""
	}
	idx := cands[r.intn(len(cands))]
	return DemoteAtomicAt(p, idx), fmt.Sprintf("ATOMS demoted to STS on instr %d", idx)
}

// StripNullification returns a copy of p with the SHL/SHR
// extent-nullification pair removed after every FREE — the program-level
// form of the campaign's skipped-nullification fault (§VIII), leaving
// the freed pointer's extent live in its register. Branch targets are
// remapped around the removed instructions. Returns nil when the
// program contains no nullification sequence (non-LMI compilation or no
// FREE).
func StripNullification(p *isa.Program) *isa.Program {
	keep := make([]bool, len(p.Instrs))
	for i := range keep {
		keep[i] = true
	}
	found := false
	for i := 0; i+2 < len(p.Instrs); i++ {
		in := &p.Instrs[i]
		if in.Op != isa.FREE {
			continue
		}
		r := in.Src[0]
		shl, shr := &p.Instrs[i+1], &p.Instrs[i+2]
		if shl.Op == isa.SHL && shl.HasImm && shl.Imm == int32(core.ExtentFieldBits) &&
			shl.Dst == r && shl.Src[0] == r &&
			shr.Op == isa.SHR && shr.HasImm && shr.Imm == int32(core.ExtentFieldBits) &&
			shr.Dst == r && shr.Src[0] == r {
			keep[i+1], keep[i+2] = false, false
			found = true
		}
	}
	if !found {
		return nil
	}
	q := cloneProgram(p)
	q.Instrs = isa.Rewrite(p.Instrs, func(out []isa.Instr, i int) []isa.Instr {
		if keep[i] {
			out = append(out, p.Instrs[i])
		}
		return out
	})
	return q
}

// corruptExtentBit flips one bit of the extent field (bits 63:59) in a
// live tagged pointer value.
func corruptExtentBit(val uint64, r *rng) (uint64, string) {
	bit := uint(core.ExtentShift + r.intn(core.ExtentFieldBits))
	nv := val ^ uint64(1)<<bit
	return nv, fmt.Sprintf("extent bit %d flipped (extent %d -> %d)",
		bit, core.Pointer(val).Extent(), core.Pointer(nv).Extent())
}

// corruptUMBit flips one unmodifiable address bit of a tagged pointer:
// above the 1 KiB victim's modifiable field (bits 9:0) and below
// GPUShield's buffer-ID field (bits 58:48), so for every mechanism the
// flip retargets the address while leaving its metadata self-consistent.
func corruptUMBit(val uint64, r *rng) (uint64, string) {
	bit := uint(10 + r.intn(38-10+1))
	return val ^ uint64(1)<<bit, fmt.Sprintf("unmodifiable address bit %d flipped", bit)
}

// misroundTag emulates a mis-rounding allocator: the reservation keeps
// its true size but the pointer's metadata claims a class one or two
// steps smaller, as if the size-class computation was corrupted during
// pointer generation. Returns the input unchanged (empty description)
// when the buffer is already in the smallest class.
func misroundTag(val uint64, r *rng) (uint64, string) {
	p := core.Pointer(val)
	e := p.Extent()
	if e <= 1 {
		return val, ""
	}
	down := core.Extent(1 + r.intn(2))
	if down >= e {
		down = e - 1
	}
	ne := e - down
	return uint64(p.WithExtent(ne)), fmt.Sprintf(
		"tag mis-rounded extent %d -> %d (reserved %d B, metadata claims %d B)",
		e, ne, core.DefaultCodec.SizeForExtent(e), core.DefaultCodec.SizeForExtent(ne))
}

// ocuMisdecode wraps a mechanism with a faulty OCU decoder: each exec
// lane's pointer check is skipped with probability 1/8, decided by a
// hash of the trial seed and the call index, which advances once per
// exec lane in ascending lane order, so the same seed skips the same
// checks regardless of worker count. The wrapper watches the EC hook's
// cycle stamps to record the (approximate) cycle of the first skipped
// check, giving the campaign an injection time for its
// detection-latency measurement.
type ocuMisdecode struct {
	sim.Mechanism
	seed uint64

	calls       uint64
	skips       uint64
	lastCycle   uint64
	injectCycle uint64
	injected    bool
}

// CheckPointerOp implements sim.Mechanism with the decode fault. A
// misdecoded lane ignores the hint: it keeps its raw result and adds no
// OCU latency. The other exec lanes go to the wrapped mechanism in one
// call.
func (o *ocuMisdecode) CheckPointerOp(ptr, res *[32]uint64, exec uint32) uint64 {
	checked := exec
	for m := exec; m != 0; m &= m - 1 {
		i := o.calls
		o.calls++
		if splitmix64(o.seed^splitmix64(i+1))%8 != 0 {
			continue
		}
		o.skips++
		if !o.injected {
			o.injected = true
			o.injectCycle = o.lastCycle
		}
		checked &^= m & -m
	}
	return o.Mechanism.CheckPointerOp(ptr, res, checked)
}

// CheckAccess implements sim.Mechanism, recording the current cycle. It
// must be overridden, not promoted from the embedded mechanism, or the
// cycle stamps would never reach lastCycle.
func (o *ocuMisdecode) CheckAccess(a *sim.WarpAccess, lanes uint32) (uint64, int, *core.Fault) {
	o.lastCycle = a.Cycle
	return o.Mechanism.CheckAccess(a, lanes)
}
