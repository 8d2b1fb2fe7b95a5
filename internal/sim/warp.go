package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/mem"
)

// This file defines the warp semantics both execution tiers share: the
// launch prelude and epilogue, the SIMT reconvergence stack, the special
// registers, the OCU site, LDC, the EC site, the functional access of a
// memory instruction (its lane kernels and the warp's local spaces), the
// heap intrinsics, TRAP, fault recording, trace and race-shadow
// observation, and the set of cache lines a warp memory instruction
// touches. The cycle tier (this package) adds GTO scheduling, the
// scoreboard, caches, DRAM and latencies around it; the compiled tier
// (internal/fastsim) adds closures, block-level dispatch, the
// unit-stride access path and virtual time.

// Exec is the state of one kernel launch that does not depend on the
// execution tier.
type Exec struct {
	Dev  *Device
	Prog *isa.Program
	// Grid and Block are the total blocks and threads per block, GridX
	// and BlockX their x extents.
	Grid, Block, GridX, BlockX int
	// cbank is the constant bank: the stack top and the parameters.
	cbank *mem.AddrSpace
	// LineShift is log2 of the cache line size.
	LineShift uint
	// Race is the launch's dynamic race oracle (nil when
	// Config.RaceOracle is off).
	Race *RaceOracle

	// Stats accumulates the launch's statistics. MemInstrs counts
	// executed memory instructions per opcode, array-backed so the hot
	// path avoids a map update; End folds it into Stats.MemInstrs.
	Stats     KernelStats
	MemInstrs [256]uint64
	// Halted stops the launch: a fault under Config.HaltOnFault, or Err.
	Halted bool
	Err    error

	// Acc is the warp memory instruction handed to the mechanism's LSU
	// hook, Lines the cache lines it touches, and TraceEv the reusable
	// event delivered to an attached tracer.
	Acc     WarpAccess
	Lines   LineSet
	TraceEv TraceEvent
}

// Begin is the launch prelude: it validates the program, the launch
// dimensions (at most 1024 threads per block) and the parameter count,
// resets the mechanism, and builds the constant bank.
func (x *Exec) Begin(d *Device, p *isa.Program, gridX, gridY, blockX, blockY int, params []uint64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if gridX <= 0 || gridY <= 0 || blockX <= 0 || blockY <= 0 {
		return fmt.Errorf("sim: bad launch dimensions (%d,%d) x (%d,%d)", gridX, gridY, blockX, blockY)
	}
	if blockX*blockY > 1024 {
		return fmt.Errorf("sim: block %d x %d exceeds 1024 threads", blockX, blockY)
	}
	if len(params) < p.NumParams {
		return fmt.Errorf("sim: kernel %s expects %d params, got %d", p.Name, p.NumParams, len(params))
	}
	d.Mech.Reset()
	cbank := mem.NewAddrSpace()
	cbank.Write(uint64(p.StackPtrConst), alloc.StackTop, 8)
	for i, v := range params {
		cbank.Write(uint64(p.ParamBase+8*i), v, 8)
	}
	*x = Exec{
		Dev: d, Prog: p,
		Grid: gridX * gridY, Block: blockX * blockY, GridX: gridX, BlockX: blockX,
		cbank:     cbank,
		LineShift: uint(bits.TrailingZeros64(d.Cfg.LineSize)),
	}
	if d.Cfg.RaceOracle {
		x.Race = NewRaceOracle()
	}
	return nil
}

// End is the launch epilogue: the statistics with the per-opcode memory
// instruction counts, the halt status and the race oracle's findings
// folded in. The tier adds what only it defines (Cycles, cache and DRAM
// counters).
func (x *Exec) End() *KernelStats {
	out := x.Stats
	out.MemInstrs = make(map[isa.Opcode]uint64)
	for op, n := range x.MemInstrs {
		if n != 0 {
			out.MemInstrs[isa.Opcode(op)] = n
		}
	}
	out.Halted = x.Halted
	if x.Race != nil {
		out.Races = x.Race.Records()
		out.SharedShadowed = x.Race.Shadowed()
	}
	return &out
}

// Count records one issued warp instruction with exec lanes.
func (x *Exec) Count(exec uint32) {
	x.Stats.Instrs++
	x.Stats.ThreadInstrs += uint64(bits.OnesCount32(exec))
}

// Fail aborts the launch with err; the first error wins.
func (x *Exec) Fail(err error) {
	if x.Err == nil {
		x.Err = err
	}
	x.Halted = true
}

// recordFault appends a fault record and halts the launch under
// Config.HaltOnFault.
func (x *Exec) recordFault(r FaultRecord) {
	x.Stats.Faults = append(x.Stats.Faults, r)
	if x.Dev.Cfg.HaltOnFault {
		x.Halted = true
	}
}

// simtEntry is one SIMT reconvergence-stack entry: a path's next pc, its
// reconvergence pc and its lanes.
type simtEntry struct {
	pc, rpc int32
	mask    uint32
}

// SIMT is a warp's reconvergence state: the SIMT stack, the reconvergence
// pc a pending SSY named, and the lanes that have exited.
type SIMT struct {
	stack      []simtEntry
	pendingSSY int32
	exited     uint32
}

// Reset starts the warp at pc 0 with lanes mask, keeping the stack's
// storage.
func (s *SIMT) Reset(mask uint32) {
	s.stack = append(s.stack[:0], simtEntry{pc: 0, rpc: -1, mask: mask})
	s.pendingSSY, s.exited = -1, 0
}

// Sync pops reconverged or fully exited entries and reports whether the
// warp still has work.
func (s *SIMT) Sync() bool {
	for len(s.stack) > 0 {
		top := &s.stack[len(s.stack)-1]
		if top.mask&^s.exited != 0 && (len(s.stack) == 1 || top.pc != top.rpc) {
			return true
		}
		s.stack = s.stack[:len(s.stack)-1]
	}
	return false
}

// PC returns the pc the warp runs next.
func (s *SIMT) PC() int32 { return s.stack[len(s.stack)-1].pc }

// Active returns the lanes of the path the warp runs that have not
// exited.
func (s *SIMT) Active() uint32 { return s.stack[len(s.stack)-1].mask &^ s.exited }

// Goto moves the running path to pc.
func (s *SIMT) Goto(pc int32) { s.stack[len(s.stack)-1].pc = pc }

// SSY names the reconvergence pc of the next divergent branch.
func (s *SIMT) SSY(rpc int32) { s.pendingSSY = rpc }

// Exit retires lanes.
func (s *SIMT) Exit(lanes uint32) { s.exited |= lanes }

// Branch executes the branch at pc to target, taken by lanes taken of
// the active lanes. A divergent branch turns the running entry into the
// reconvergence continuation at the pending SSY's pc and pushes the two
// paths above it, each popping when its pc reaches that pc (GPGPU-Sim
// style post-dominator stack); without a pending SSY it fails the
// launch.
func (x *Exec) Branch(s *SIMT, pc int, target int32, active, taken uint32) {
	top := &s.stack[len(s.stack)-1]
	switch {
	case taken == active:
		top.pc = target
	case taken == 0:
		top.pc = int32(pc) + 1
	default:
		rpc := s.pendingSSY
		if rpc < 0 {
			x.Fail(fmt.Errorf("sim: %s: divergent branch at pc %d without SSY", x.Prog.Name, pc))
			return
		}
		top.pc = rpc
		s.stack = append(s.stack,
			simtEntry{pc: int32(pc) + 1, rpc: rpc, mask: active &^ taken},
			simtEntry{pc: target, rpc: rpc, mask: taken},
		)
	}
	s.pendingSSY = -1
}

// SpecialReg executes S2R: each exec lane of d gets special register sr
// of its thread (lane of warp warpIdx in block ctaid), running on SM sm.
func (x *Exec) SpecialReg(d *[32]uint64, exec uint32, sr isa.SReg, ctaid, warpIdx, sm int) {
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		tid := warpIdx*32 + lane
		var v int
		switch sr {
		case isa.SRTidX:
			v = tid % x.BlockX
		case isa.SRTidY:
			v = tid / x.BlockX
		case isa.SRCtaidX:
			v = ctaid % x.GridX
		case isa.SRCtaidY:
			v = ctaid / x.GridX
		case isa.SRNtidX:
			v = x.BlockX
		case isa.SRNtidY:
			v = x.Block / x.BlockX
		case isa.SRNctaidX:
			v = x.GridX
		case isa.SRNctaidY:
			v = x.Grid / x.GridX
		case isa.SRLaneID:
			v = lane
		case isa.SRWarpID:
			v = warpIdx
		case isa.SRSMID:
			v = sm
		}
		d[lane] = uint64(v)
	}
}

// Trap executes TRAP: one software bounds-check fault per warp
// instruction, attributed to the lowest exec lane. at locates the
// instruction; Trap fills in the fault and the lane.
func (x *Exec) Trap(code int32, exec uint32, at FaultRecord) {
	if exec == 0 {
		return
	}
	at.Fault = core.NewFault(core.FaultSpatial, 0, 0,
		fmt.Sprintf("software bounds check trap (code %d)", code))
	at.Lane = bits.TrailingZeros32(exec)
	x.recordFault(at)
}

// PointerOp is the OCU site of an A-hinted integer ALU instruction: it
// narrows the 32 lanes of result row res to sign-extended 32-bit values
// when narrow is set, then runs the mechanism's pointer check over the
// exec lanes against pointer row ptr, counting one PointerCheck per
// lane. It returns the largest extra latency the check reported.
func (x *Exec) PointerOp(ptr, res *[32]uint64, exec uint32, narrow bool) uint64 {
	if narrow {
		narrow32(res)
	}
	x.Stats.PointerChecks += uint64(bits.OnesCount32(exec))
	return x.Dev.Mech.CheckPointerOp(ptr, res, exec)
}

// narrow32 sign-extends the low 32 bits of every lane of row r.
func narrow32(r *[32]uint64) {
	for l := range r {
		r[l] = isa.Sx32(int32(r[l]))
	}
}

// LoadConst executes LDC: each exec lane of d gets the size-byte word of
// the constant bank at a[lane] + off.
func (x *Exec) LoadConst(d, a *[32]uint64, exec uint32, off, size uint64) {
	cw := mem.NewPageWin(x.cbank)
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = cw.Load(a[l]+off, size)
	}
}

// CheckAccess is the EC site of the warp memory instruction at pc issued
// by warp warpID: it loads the exec lanes' addresses (ar + off) into
// x.Acc.Addr and runs the extent check, the caller having set x.Acc's
// SM, Space, Size, Store and Cycle. A checked site judges coalescing on
// raw (possibly tagged) pointer lines over every exec lane: tag bits are
// constant within a buffer, so lanes falling in the same line compare
// equal regardless of the tagging scheme. It then calls the mechanism's
// hook until no lane faults, recording each fault and suppressing its
// lane. Mechanism costs accumulate across lanes: shared checking
// structures (bounds caches, table fetch ports) serialize, which is
// exactly what hurts uncoalesced access patterns (§XI-A); mechanisms
// with per-lane hardware (LMI's EC) charge zero. When a fault halts the
// launch, the lanes above the halting one are neither checked nor
// accessed. An E-hinted site, whose access the compiler proved in-bounds
// and the linter's elide audit independently re-derived, skips the
// check and canonicalises the addresses directly. It returns the lanes
// whose access proceeds and the mechanism's extra cycles.
func (x *Exec) CheckAccess(exec uint32, ar *[32]uint64, off uint64, hintE bool, pc, warpID int) (pass uint32, extra uint64) {
	a := &x.Acc
	mech := x.Dev.Mech
	if hintE {
		for m := exec; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			a.Addr[lane] = mech.Canonical(ar[lane] + off)
		}
		x.Stats.ECElided += uint64(bits.OnesCount32(exec))
		return exec, 0
	}
	var (
		co       uint32
		prevLine uint64
		havePrev bool
	)
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		raw := ar[lane] + off
		a.Addr[lane] = raw
		line := raw >> x.LineShift
		if havePrev && line == prevLine {
			co |= 1 << lane
		}
		prevLine, havePrev = line, true
	}
	a.Coalesced = co
	pass, checked := exec, exec
	for m := exec; m != 0; {
		cost, lane, fault := mech.CheckAccess(a, m)
		extra += cost
		if fault == nil {
			break
		}
		x.recordFault(FaultRecord{Fault: fault, PC: pc, SM: a.SM, Warp: warpID, Lane: lane, Cycle: a.Cycle})
		pass &^= 1 << lane
		if x.Halted {
			below := uint32(1)<<lane - 1
			pass &= below
			checked &= below | 1<<lane
			break
		}
		m &= ^uint32(0) << (lane + 1)
	}
	x.Stats.ECChecked += uint64(bits.OnesCount32(checked))
	return pass, extra
}

// Observe hands the lanes in pass of the memory instruction op at pc,
// issued by warp warpIdx of its block, to the attached tracer and to the
// block's race-oracle shadow (nil unless the oracle is armed and the
// access is to shared memory), with the addresses CheckAccess left in
// x.Acc.
func (x *Exec) Observe(pass uint32, shadow *BlockShadow, op isa.Opcode, pc, warpIdx int) {
	a := &x.Acc
	if x.Dev.Tracer != nil {
		for m := pass; m != 0; m &= m - 1 {
			x.TraceEv.Addrs = append(x.TraceEv.Addrs, a.Addr[bits.TrailingZeros32(m)])
		}
	}
	if shadow == nil {
		return
	}
	kind := RaceRead
	if op == isa.ATOMG || op == isa.ATOMS {
		kind = RaceAtomic
	} else if op.IsStore() {
		kind = RaceWrite
	}
	for m := pass; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		shadow.Record(pc, warpIdx*32+lane, kind, a.Addr[lane], a.Size)
	}
}

// EmitTrace delivers one executed warp instruction to the attached
// tracer (Observe has collected a memory instruction's lane addresses).
func (x *Exec) EmitTrace(pc int, op isa.Opcode, hintA bool, sm, warpID int, exec uint32) {
	ev := &x.TraceEv
	ev.PC, ev.Op, ev.HintA = pc, op, hintA
	ev.SM, ev.Warp, ev.Active = sm, warpID, exec
	x.Dev.Tracer.Trace(ev)
}

// LoadValue applies a load's sign-extension flag (32-bit loads only) to
// the loaded value.
func LoadValue(v uint64, signExt bool) uint64 {
	if signExt {
		return isa.Sx32(int32(uint32(v)))
	}
	return v
}

// Locals is a warp's per-lane local memory. A lane's space is created on
// its first local access and reset, not dropped, for every block.
type Locals []*mem.AddrSpace

// lane returns lane l's space, creating it on first use.
func (loc Locals) lane(l int) *mem.AddrSpace {
	if loc[l] == nil {
		loc[l] = mem.NewAddrSpace()
	}
	return loc[l]
}

// Reset empties every lane's space, keeping its page frames.
func (loc Locals) Reset() {
	for _, s := range loc {
		if s != nil {
			s.Reset()
		}
	}
}

// MemKernel is the functional access of a warp memory instruction: each
// lane of lanes, in ascending order, accesses addrs[lane], in as for
// global and shared memory (through one mem.PageWin) or in its own space
// of loc for local memory, loading into dr or storing from vr.
type MemKernel func(as *mem.AddrSpace, loc Locals, lanes uint32, addrs, vr, dr *[32]uint64)

// MemKernelOf resolves the MemKernel of a memory instruction from its
// opcode (its space and its role: load, store, or atomic add returning
// the old value), its access size and, for a 4-byte load, its
// sign-extension flag; it is nil for every opcode but LDG, STG, LDS,
// STS, LDL, STL, ATOMG and ATOMS. Each tier resolves it once per pc, as
// it does isa.Instr.ALU.
func MemKernelOf(in *isa.Instr) MemKernel {
	size := in.AccSize()
	signExt := in.SignExtend() && size == 4
	switch in.Op {
	case isa.STL:
		return func(_ *mem.AddrSpace, loc Locals, lanes uint32, addrs, vr, _ *[32]uint64) {
			for m := lanes; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				loc.lane(l).Write(addrs[l], vr[l], int(size))
			}
		}
	case isa.LDL:
		return func(_ *mem.AddrSpace, loc Locals, lanes uint32, addrs, _, dr *[32]uint64) {
			for m := lanes; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dr[l] = LoadValue(loc.lane(l).Read(addrs[l], int(size)), signExt)
			}
		}
	case isa.ATOMG, isa.ATOMS:
		return func(as *mem.AddrSpace, _ Locals, lanes uint32, addrs, vr, dr *[32]uint64) {
			pw := mem.NewPageWin(as)
			for m := lanes; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				old := pw.Load(addrs[l], size)
				pw.Store(addrs[l], uint64(uint32(int32(old)+int32(vr[l]))), size)
				dr[l] = old
			}
		}
	case isa.STG, isa.STS:
		return func(as *mem.AddrSpace, _ Locals, lanes uint32, addrs, vr, _ *[32]uint64) {
			pw := mem.NewPageWin(as)
			for m := lanes; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				pw.Store(addrs[l], vr[l], size)
			}
		}
	case isa.LDG, isa.LDS:
		return func(as *mem.AddrSpace, _ Locals, lanes uint32, addrs, _, dr *[32]uint64) {
			pw := mem.NewPageWin(as)
			for m := lanes; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dr[l] = LoadValue(pw.Load(addrs[l], size), signExt)
			}
		}
	}
	return nil
}

// LineSet collects the distinct cache lines one warp memory instruction
// touches, in first-touch order. Each lane touches at most two lines, so
// 64 entries always suffice.
type LineSet struct {
	lines    [64]uint64
	n        int
	prev     uint64
	havePrev bool
}

// Reset empties the set for the next instruction.
func (s *LineSet) Reset() { s.n, s.havePrev = 0, false }

// Add records the line(s) of 1<<shift bytes a size-byte access at addr
// touches: its line unless the previous access fell in the same one
// (otherwise the whole set is checked, as lanes may stride across a few
// lines), and the next line too when the access straddles a boundary.
func (s *LineSet) Add(addr, size uint64, shift uint) {
	la := addr >> shift
	if !(s.havePrev && la == s.prev) {
		s.add(la)
	}
	s.prev, s.havePrev = la, true
	if addr&(1<<shift-1)+size > 1<<shift {
		s.add(la + 1)
	}
}

// add records line la unless the set holds it.
func (s *LineSet) add(la uint64) {
	for _, e := range s.lines[:s.n] {
		if e == la {
			return
		}
	}
	s.lines[s.n] = la
	s.n++
}

// Lines returns the recorded lines in first-touch order.
func (s *LineSet) Lines() []uint64 { return s.lines[:s.n] }

// Heap executes device MALLOC or FREE (§V-B "Heap Memory") for each exec
// lane in ascending order: every thread allocates its own buffer,
// contending on the device allocator. MALLOC allocates src[lane] bytes
// and, when dst is non-nil, writes the mechanism-tagged pointer into
// dst[lane]; a negative size, an allocator error or a tagging error
// fails the launch. FREE untags src[lane] and frees it; an invalid free
// is the lane's fault, any other error fails the launch. at locates the
// instruction for fault records. Each tier charges its own latency
// unless the launch halted.
func (x *Exec) Heap(op isa.Opcode, exec uint32, src, dst *[32]uint64, at FaultRecord) {
	mech, heap := x.Dev.Mech, x.Dev.heap
	for m := exec; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		val := src[lane]
		if op == isa.FREE {
			err := heap.Free(mech.UntagFree(val, isa.SpaceHeap))
			var f *core.Fault
			switch {
			case err == nil:
				continue
			case errors.As(err, &f):
				at.Fault, at.Lane = f, lane
				x.recordFault(at)
			default:
				x.Fail(err)
			}
			if x.Halted {
				return
			}
			continue
		}
		if int64(val) < 0 {
			x.Fail(fmt.Errorf("sim: %s: negative malloc size at pc %d", x.Prog.Name, at.PC))
			return
		}
		b, err := heap.Malloc(val)
		if err == nil && dst != nil {
			dst[lane], err = mech.TagAlloc(b, isa.SpaceHeap)
		}
		if err != nil {
			x.Fail(fmt.Errorf("sim: %s: %w", x.Prog.Name, err))
			return
		}
	}
}
