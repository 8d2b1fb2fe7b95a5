package fastsim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"

	"lmi/internal/alloc"
	"lmi/internal/core"
	"lmi/internal/isa"
	"lmi/internal/mem"
	"lmi/internal/sim"
)

// simtEntry is one SIMT reconvergence-stack entry (identical to the
// cycle simulator's).
type simtEntry struct {
	pc, rpc int32
	mask    uint32
}

// fwarp is one warp's functional execution state on the compiled tier.
// An engine keeps one fwarp per warp slot of a block and reuses it,
// register file included, for every block of the launch.
type fwarp struct {
	globalID int
	warpIdx  int

	launchMask uint32
	// rf is the warp's register file in register-major rows of 32 lanes
	// (lane l's register r lives at r*32+l), so a warp instruction reads
	// each operand as one contiguous row. Past the Compiled.nregs
	// register rows come the zero row RZ reads, the discard row RZ
	// writes go to, and one broadcast row per distinct immediate
	// (Compiled.consts); compiled closures address every operand by row.
	rf    []uint64
	preds [8]uint32 // predicate files as lane bitmasks; preds[PT] = launchMask
	// locals holds each lane's local memory, created on the lane's first
	// local access and reset, not dropped, for every block.
	locals []*mem.AddrSpace

	stack      []simtEntry
	pendingSSY int32
	exited     uint32

	atBarrier bool
	done      bool

	// vtime is the warp's deterministic virtual-time estimate within its
	// block: one unit per issued instruction plus memory/heap/OCU
	// latency estimates. It feeds the Cycles estimate and fault
	// timestamps; it is not part of the cross-tier functional
	// projection.
	vtime uint64
	// icount counts issued warp instructions; it bounds runaway warps
	// (the compiled tier's Config.MaxCycles analogue — a warp issues at
	// most one instruction per cycle, so a warp exceeding MaxCycles
	// instructions would necessarily exceed MaxCycles cycles too).
	icount uint64
	// sinceProg counts instructions since the last observable-progress
	// event (memory, heap, barrier, exit) for the no-progress watchdog.
	sinceProg uint64
}

// row returns row r of the warp's register file.
func (w *fwarp) row(r int) *[32]uint64 { return (*[32]uint64)(w.rf[r*32 : r*32+32]) }

// local returns a lane's local memory, creating it on first use.
func (w *fwarp) local(lane int) *mem.AddrSpace {
	lm := w.locals[lane]
	if lm == nil {
		lm = mem.NewAddrSpace()
		w.locals[lane] = lm
	}
	return lm
}

// syncTop pops reconverged or fully-exited stack entries and reports
// whether the warp still has work (mirrors the cycle simulator).
func (w *fwarp) syncTop() bool {
	for {
		if len(w.stack) == 0 {
			w.done = true
			return false
		}
		top := &w.stack[len(w.stack)-1]
		if top.mask&^w.exited == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if len(w.stack) > 1 && top.pc == top.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return true
	}
}

// engine is the transient state of one compiled-tier kernel execution.
type engine struct {
	ctx      context.Context
	ctxArmed bool
	dev      *sim.Device
	c        *Compiled
	cfg      *sim.Config
	mech     sim.Mechanism
	global   *mem.AddrSpace
	shared   *mem.AddrSpace // the current block's, reset for every block
	heap     *alloc.DeviceHeap
	cbank    *mem.AddrSpace
	tracer   sim.Tracer

	grid, bdim, gridX, bdimX int
	ctaid                    int
	smID                     int

	stats  sim.KernelStats
	halted bool
	runErr error

	// race is the launch's dynamic race oracle and shadow the current
	// block's per-epoch state (nil when Config.RaceOracle is off).
	// Closures are cached across launches, so the memory closure branches
	// on shadow at run time rather than compile time.
	race   *sim.RaceOracle
	shadow *sim.BlockShadow

	noProg    uint64 // watchdog no-progress bound (instructions)
	maxInstrs uint64 // per-warp instruction budget (MaxCycles analogue)
	tick      uint64 // global instruction counter for ctx polling

	// memInstrs is the per-opcode executed-memory-instruction counter,
	// array-backed so the hot path avoids a map update per warp memory
	// instruction; it is folded into stats.MemInstrs once at launch end.
	memInstrs [256]uint64

	// acc is the warp memory instruction handed to the mechanism's LSU
	// hook, lines the transaction-line set of its timing estimate, and
	// lineShift log2 of the cache line size (validated as a power of two
	// at device creation).
	acc       sim.WarpAccess
	lines     [64]uint64
	lineShift uint

	// blockBase is the current block's SM-timeline offset; smTime
	// accumulates per-SM block time for the Cycles estimate.
	blockBase uint64
	smTime    []uint64

	// warps holds one warp slot per warp of a block, reused by every
	// block of the launch.
	warps []*fwarp
	// res is the ALU result row of a warp instruction that commits only
	// some of its lanes (see aluClosure).
	res [32]uint64

	traceEv sim.TraceEvent
}

// LaunchCtx runs the compiled kernel to completion with a 1-D grid,
// bounded by a context: cancellation is observed at the
// instruction-polling cadence and aborts with a *sim.ContextError,
// exactly like the cycle tier.
func (c *Compiled) LaunchCtx(ctx context.Context, dev *sim.Device, gridDim, blockDim int, params []uint64) (*sim.KernelStats, error) {
	return c.Launch2DCtx(ctx, dev, gridDim, 1, blockDim, 1, params)
}

// Launch2DCtx runs the compiled kernel with a 2-D grid and 2-D blocks,
// mirroring the cycle simulator's launch prelude (validation, dimension
// checks, mechanism reset, constant-bank image) and its fault/halt/
// error semantics. Blocks execute sequentially in ctaid order and warps
// within a block round-robin between barrier segments, which preserves
// the functional projection of the launch; only the timing-model fields
// of KernelStats (Cycles, L1/L2/DRAM, fault cycle stamps) differ from
// the cycle tier.
func (c *Compiled) Launch2DCtx(ctx context.Context, dev *sim.Device, gridX, gridY, blockX, blockY int, params []uint64) (st *sim.KernelStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, &sim.PanicError{Op: "Launch", Value: r, Stack: debug.Stack()}
		}
	}()
	p := c.prog
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if gridX <= 0 || gridY <= 0 || blockX <= 0 || blockY <= 0 {
		return nil, fmt.Errorf("fastsim: bad launch dimensions (%d,%d) x (%d,%d)", gridX, gridY, blockX, blockY)
	}
	gridDim, blockDim := gridX*gridY, blockX*blockY
	if blockDim > 1024 {
		return nil, fmt.Errorf("fastsim: block %d x %d exceeds 1024 threads", blockX, blockY)
	}
	if len(params) < p.NumParams {
		return nil, fmt.Errorf("fastsim: kernel %s expects %d params, got %d", p.Name, p.NumParams, len(params))
	}
	dev.Mech.Reset()

	cbank := mem.NewAddrSpace()
	cbank.Write(uint64(p.StackPtrConst), alloc.StackTop, 8)
	for i, v := range params {
		cbank.Write(uint64(p.ParamBase+8*i), v, 8)
	}

	e := &engine{
		ctx:       ctx,
		ctxArmed:  ctx != nil && ctx.Done() != nil,
		dev:       dev,
		c:         c,
		cfg:       &dev.Cfg,
		mech:      dev.Mech,
		global:    dev.Global,
		shared:    mem.NewAddrSpace(),
		heap:      dev.Heap(),
		cbank:     cbank,
		tracer:    dev.Tracer,
		grid:      gridDim,
		bdim:      blockDim,
		gridX:     gridX,
		bdimX:     blockX,
		noProg:    dev.Cfg.Watchdog.NoProgressCycles,
		maxInstrs: dev.Cfg.MaxCycles,
		lineShift: uint(bits.TrailingZeros64(dev.Cfg.LineSize)),
		smTime:    make([]uint64, dev.Cfg.NumSMs),
	}
	e.stats.MemInstrs = make(map[isa.Opcode]uint64)
	if dev.Cfg.RaceOracle {
		e.race = sim.NewRaceOracle()
	}
	rows := constRow(c.nregs, len(c.consts))
	for wi := 0; wi < (blockDim+31)/32; wi++ {
		lanes := min(blockDim-wi*32, 32)
		w := &fwarp{
			warpIdx:    wi,
			launchMask: uint32(1)<<uint(lanes) - 1,
			rf:         make([]uint64, rows*32),
			locals:     make([]*mem.AddrSpace, lanes),
		}
		for k, v := range c.consts {
			r := w.row(constRow(c.nregs, k))
			for l := range r {
				r[l] = v
			}
		}
		e.warps = append(e.warps, w)
	}

	for ctaid := 0; ctaid < gridDim; ctaid++ {
		e.runBlock(ctaid)
		if e.runErr != nil {
			return nil, e.runErr
		}
		if e.halted {
			break
		}
	}
	out := e.stats
	for op, n := range e.memInstrs {
		if n != 0 {
			out.MemInstrs[isa.Opcode(op)] = n
		}
	}
	out.Halted = e.halted
	if e.race != nil {
		out.Races = e.race.Records()
		out.SharedShadowed = e.race.Shadowed()
	}
	for _, t := range e.smTime {
		if t > out.Cycles {
			out.Cycles = t
		}
	}
	return &out, nil
}

// runBlock instantiates and executes one thread block. Warps run
// round-robin between barrier segments: each live warp runs until it
// parks at a barrier or exits, and the barrier releases once every live
// warp of the block is parked — the cycle simulator's release rule.
func (e *engine) runBlock(ctaid int) {
	e.ctaid = ctaid
	e.smID = ctaid % e.cfg.NumSMs
	e.blockBase = e.smTime[e.smID]
	e.shared.Reset()
	if e.race != nil {
		e.shadow = e.race.NewBlockShadow()
	}
	warps := e.warps
	for wi, w := range warps {
		*w = fwarp{
			globalID:   ctaid*len(warps) + wi,
			warpIdx:    wi,
			launchMask: w.launchMask,
			rf:         w.rf,
			locals:     w.locals,
			stack:      append(w.stack[:0], simtEntry{pc: 0, rpc: -1, mask: w.launchMask}),
			pendingSSY: -1,
		}
		clear(w.rf[:e.c.nregs*32])
		for _, lm := range w.locals {
			if lm != nil {
				lm.Reset()
			}
		}
		w.preds[isa.PT] = w.launchMask
	}

	for {
		anyLive := false
		for _, w := range warps {
			if w.done {
				continue
			}
			anyLive = true
			if w.atBarrier {
				continue
			}
			e.runWarp(w)
			if e.halted || e.runErr != nil {
				return
			}
		}
		if !anyLive {
			break
		}
		// Every live warp is parked (runWarp only stops at a barrier,
		// exit, halt, or error): release the barrier.
		for _, w := range warps {
			if !w.done {
				w.atBarrier = false
				w.sinceProg = 0
			}
		}
		if e.shadow != nil {
			e.shadow.EpochEnd()
		}
	}
	if e.shadow != nil {
		e.shadow.EpochEnd()
		e.shadow = nil
	}

	// Block retired: fold its time estimate into its SM's timeline.
	var blockTime uint64
	for _, w := range warps {
		if w.vtime > blockTime {
			blockTime = w.vtime
		}
	}
	e.smTime[e.smID] += blockTime
}

// runWarp executes a warp block-by-block until it exits, parks at a
// barrier, faults the launch, or errors. Reconvergence (syncTop) is
// checked only at block entry: every reconvergence pc is an SSY target
// and therefore a block leader.
func (e *engine) runWarp(w *fwarp) {
	for {
		if !w.syncTop() {
			return
		}
		top := &w.stack[len(w.stack)-1]
		pc := int(top.pc)
		if pc < 0 || pc >= len(e.c.blockOf) || e.c.blockOf[pc] < 0 {
			e.fail(fmt.Errorf("fastsim: %s: control reached pc %d outside any basic block", e.c.prog.Name, pc))
			return
		}
		blk := &e.c.blocks[e.c.blockOf[pc]]
		active := top.mask &^ w.exited
		trace := e.tracer != nil

		for k := range blk.body {
			if trace {
				e.traceEv.Addrs = e.traceEv.Addrs[:0]
			}
			exec := blk.body[k](e, w, active)
			w.vtime++
			if trace {
				e.emitTrace(blk.start+k, blk.ops[k], blk.hintA[k], w, exec)
			}
			if e.halted || e.runErr != nil {
				return
			}
			if e.step(w) {
				return
			}
		}

		if blk.term == termFall {
			top.pc = blk.next
			continue
		}
		// Control terminator (BRA/EXIT/BAR): counted and traced like any
		// issued instruction.
		exec := blk.termGuard.exec(w, active)
		e.count(exec)
		w.vtime++
		if trace {
			e.traceEv.Addrs = e.traceEv.Addrs[:0]
			e.emitTrace(blk.termPC, blk.termOp, false, w, exec)
		}
		if e.step(w) {
			return
		}
		switch blk.term {
		case termEXIT:
			w.exited |= exec
			w.sinceProg = 0
			top.pc = blk.next
		case termBAR:
			w.atBarrier = true
			w.sinceProg = 0
			top.pc = blk.next
			return
		case termBRA:
			e.branch(w, top, blk, active, exec)
			if e.runErr != nil {
				return
			}
		}
	}
}

// branch implements the SIMT reconvergence-stack transform, mirroring
// the cycle simulator's branch().
func (e *engine) branch(w *fwarp, top *simtEntry, blk *bblock, active, taken uint32) {
	switch {
	case taken == active:
		top.pc = blk.target
	case taken == 0:
		top.pc = blk.next
	default:
		rpc := w.pendingSSY
		if rpc < 0 {
			e.fail(fmt.Errorf("fastsim: %s: divergent branch at pc %d without SSY", e.c.prog.Name, blk.termPC))
			return
		}
		top.pc = rpc
		w.stack = append(w.stack,
			simtEntry{pc: blk.next, rpc: rpc, mask: active &^ taken},
			simtEntry{pc: blk.target, rpc: rpc, mask: taken},
		)
	}
	w.pendingSSY = -1
}

// step performs per-instruction bookkeeping: the instruction budget,
// the no-progress watchdog, and context-cancellation polling. It
// reports whether the launch must stop.
func (e *engine) step(w *fwarp) bool {
	w.icount++
	w.sinceProg++
	if e.maxInstrs > 0 && w.icount > e.maxInstrs {
		e.fail(&sim.CycleLimitError{Kernel: e.c.prog.Name, Limit: e.maxInstrs})
		return true
	}
	if e.noProg > 0 && w.sinceProg > e.noProg {
		e.runErr = &sim.WatchdogError{
			Kind:   sim.WatchdogNoProgress,
			Kernel: e.c.prog.Name,
			Cycle:  e.blockBase + w.vtime,
			Detail: fmt.Sprintf("warp%d issued %d instructions without memory/heap/barrier/exit activity", w.globalID, e.noProg),
		}
		e.halted = true
		return true
	}
	e.tick++
	if e.ctxArmed && e.tick&1023 == 0 {
		if err := e.ctx.Err(); err != nil {
			e.runErr = &sim.ContextError{Kernel: e.c.prog.Name, Cycle: e.blockBase + w.vtime, Err: err}
			e.halted = true
			return true
		}
	}
	return false
}

// count updates the issued-instruction statistics exactly like the
// cycle simulator's issue path.
func (e *engine) count(exec uint32) {
	e.stats.Instrs++
	e.stats.ThreadInstrs += uint64(bits.OnesCount32(exec))
}

// fail aborts the launch with an error (the cycle simulator's
// runErr+halted convention).
func (e *engine) fail(err error) {
	if e.runErr == nil {
		e.runErr = err
	}
	e.halted = true
}

// recordFault appends a fault record and halts the launch if
// configured. The SM index is the block's deterministic SM assignment
// (ctaid mod NumSMs) and the cycle stamp is the virtual-time estimate;
// both are scheduling artifacts excluded from the cross-tier
// functional projection.
func (e *engine) recordFault(f *core.Fault, pc int, w *fwarp, lane int) {
	e.stats.Faults = append(e.stats.Faults, sim.FaultRecord{
		Fault: f, PC: pc, SM: e.smID, Warp: w.globalID, Lane: lane,
		Cycle: e.blockBase + w.vtime,
	})
	if e.cfg.HaltOnFault {
		e.halted = true
	}
}

// trap raises the TRAP software fault (one record per warp instruction).
func (e *engine) trap(pc int, w *fwarp, lane int, code int32) {
	e.recordFault(core.NewFault(core.FaultSpatial, 0, 0,
		fmt.Sprintf("software bounds check trap (code %d)", code)), pc, w, lane)
}

// space returns global memory or the block's shared memory.
func (e *engine) space(global bool) *mem.AddrSpace {
	if global {
		return e.global
	}
	return e.shared
}

// specialReg reads an S2R value for a lane. SRSMID reports the
// deterministic block-to-SM assignment.
func (e *engine) specialReg(w *fwarp, lane int, sr isa.SReg) uint64 {
	tid := w.warpIdx*32 + lane
	switch sr {
	case isa.SRTidX:
		return uint64(tid % e.bdimX)
	case isa.SRTidY:
		return uint64(tid / e.bdimX)
	case isa.SRCtaidX:
		return uint64(e.ctaid % e.gridX)
	case isa.SRCtaidY:
		return uint64(e.ctaid / e.gridX)
	case isa.SRNtidX:
		return uint64(e.bdimX)
	case isa.SRNtidY:
		return uint64(e.bdim / e.bdimX)
	case isa.SRNctaidX:
		return uint64(e.gridX)
	case isa.SRNctaidY:
		return uint64(e.grid / e.gridX)
	case isa.SRLaneID:
		return uint64(lane)
	case isa.SRWarpID:
		return uint64(w.warpIdx)
	case isa.SRSMID:
		return uint64(e.smID)
	default:
		return 0
	}
}

// emitTrace delivers one executed instruction to the attached tracer
// (memory closures have already collected lane addresses into traceEv).
func (e *engine) emitTrace(pc int, op isa.Opcode, hintA bool, w *fwarp, exec uint32) {
	e.traceEv.PC = pc
	e.traceEv.Op = op
	e.traceEv.SM = e.smID
	e.traceEv.Warp = w.globalID
	e.traceEv.Active = exec
	e.traceEv.HintA = hintA
	e.tracer.Trace(&e.traceEv)
}
