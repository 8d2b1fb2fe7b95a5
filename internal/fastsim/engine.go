package fastsim

import (
	"context"
	"fmt"
	"runtime/debug"

	"lmi/internal/isa"
	"lmi/internal/mem"
	"lmi/internal/sim"
)

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
	rf     []uint64
	preds  [8]uint32  // predicate files as lane bitmasks; preds[PT] = launchMask
	locals sim.Locals // each lane's local memory

	sim.SIMT

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

// engine is the transient state of one compiled-tier kernel execution:
// the state both tiers share plus the compiled tier's own.
type engine struct {
	sim.Exec
	ctx      context.Context
	ctxArmed bool
	c        *Compiled
	cfg      *sim.Config
	shared   *mem.AddrSpace // the current block's, reset for every block

	ctaid int
	smID  int

	// shadow is the current block's race-oracle state (nil when
	// Config.RaceOracle is off). Closures are cached across launches, so
	// the memory closure branches on it at run time rather than compile
	// time.
	shadow *sim.BlockShadow

	noProg    uint64 // watchdog no-progress bound (instructions)
	maxInstrs uint64 // per-warp instruction budget (MaxCycles analogue)
	tick      uint64 // global instruction counter for ctx polling

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
}

// LaunchCtx runs the compiled kernel to completion with a 1-D grid,
// bounded by a context: cancellation is observed at the
// instruction-polling cadence and aborts with a *sim.ContextError,
// exactly like the cycle tier. Blocks execute sequentially in ctaid
// order and warps within a block round-robin between barrier segments,
// which preserves the functional projection of the launch; only the
// timing-model fields of KernelStats (Cycles, L1/L2/DRAM, fault cycle
// stamps) differ from the cycle tier.
func (c *Compiled) LaunchCtx(ctx context.Context, dev *sim.Device, gridDim, blockDim int, params []uint64) (st *sim.KernelStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, &sim.PanicError{Op: "Launch", Value: r, Stack: debug.Stack()}
		}
	}()
	e := &engine{
		ctx:       ctx,
		ctxArmed:  ctx != nil && ctx.Done() != nil,
		c:         c,
		cfg:       &dev.Cfg,
		shared:    mem.NewAddrSpace(),
		noProg:    dev.Cfg.Watchdog.NoProgressCycles,
		maxInstrs: dev.Cfg.MaxCycles,
		smTime:    make([]uint64, dev.Cfg.NumSMs),
	}
	if err := e.Begin(dev, c.prog, gridDim, 1, blockDim, 1, params); err != nil {
		return nil, err
	}
	rows := constRow(c.nregs, len(c.consts))
	for wi := 0; wi < (e.Block+31)/32; wi++ {
		lanes := min(e.Block-wi*32, 32)
		w := &fwarp{
			warpIdx:    wi,
			launchMask: uint32(1)<<uint(lanes) - 1,
			rf:         make([]uint64, rows*32),
			locals:     make(sim.Locals, lanes),
		}
		for k, v := range c.consts {
			r := w.row(constRow(c.nregs, k))
			for l := range r {
				r[l] = v
			}
		}
		e.warps = append(e.warps, w)
	}

	for ctaid := 0; ctaid < e.Grid; ctaid++ {
		e.runBlock(ctaid)
		if e.Err != nil {
			return nil, e.Err
		}
		if e.Halted {
			break
		}
	}
	out := e.End()
	for _, t := range e.smTime {
		out.Cycles = max(out.Cycles, t)
	}
	return out, nil
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
	if e.Race != nil {
		e.shadow = e.Race.NewBlockShadow()
	}
	warps := e.warps
	for wi, w := range warps {
		*w = fwarp{
			globalID:   ctaid*len(warps) + wi,
			warpIdx:    wi,
			launchMask: w.launchMask,
			rf:         w.rf,
			locals:     w.locals,
			SIMT:       w.SIMT,
		}
		w.Reset(w.launchMask)
		clear(w.rf[:e.c.nregs*32])
		w.locals.Reset()
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
			if e.Halted {
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
// barrier, faults the launch, or errors. Reconvergence (SIMT.Sync) is
// checked only at block entry: every reconvergence pc is an SSY target
// and therefore a block leader.
func (e *engine) runWarp(w *fwarp) {
	for {
		if !w.Sync() {
			w.done = true
			return
		}
		pc := int(w.PC())
		if pc < 0 || pc >= len(e.c.blockOf) || e.c.blockOf[pc] < 0 {
			e.Fail(fmt.Errorf("fastsim: %s: control reached pc %d outside any basic block", e.c.prog.Name, pc))
			return
		}
		blk := &e.c.blocks[e.c.blockOf[pc]]
		active := w.Active()
		trace := e.Dev.Tracer != nil

		for k := range blk.body {
			if trace {
				e.TraceEv.Addrs = e.TraceEv.Addrs[:0]
			}
			exec := blk.body[k](e, w, active)
			w.vtime++
			if trace {
				e.EmitTrace(blk.start+k, blk.ops[k], blk.hintA[k], e.smID, w.globalID, exec)
			}
			if e.Halted {
				return
			}
			if e.step(w) {
				return
			}
		}

		if blk.term == termFall {
			w.Goto(blk.next)
			continue
		}
		// Control terminator (BRA/EXIT/BAR): counted and traced like any
		// issued instruction.
		exec := blk.termGuard.exec(w, active)
		e.Count(exec)
		w.vtime++
		if trace {
			e.TraceEv.Addrs = e.TraceEv.Addrs[:0]
			e.EmitTrace(blk.termPC, blk.termOp, false, e.smID, w.globalID, exec)
		}
		if e.step(w) {
			return
		}
		switch blk.term {
		case termEXIT:
			w.Exit(exec)
			w.sinceProg = 0
			w.Goto(blk.next)
		case termBAR:
			w.atBarrier = true
			w.sinceProg = 0
			w.Goto(blk.next)
			return
		case termBRA:
			e.Branch(&w.SIMT, blk.termPC, blk.target, active, exec)
			if e.Halted {
				return
			}
		}
	}
}

// step performs per-instruction bookkeeping: the instruction budget,
// the no-progress watchdog, and context-cancellation polling. It
// reports whether the launch must stop.
func (e *engine) step(w *fwarp) bool {
	w.icount++
	w.sinceProg++
	if e.maxInstrs > 0 && w.icount > e.maxInstrs {
		e.Fail(&sim.CycleLimitError{Kernel: e.c.prog.Name, Limit: e.maxInstrs})
		return true
	}
	if e.noProg > 0 && w.sinceProg > e.noProg {
		e.Fail(&sim.WatchdogError{
			Kind:   sim.WatchdogNoProgress,
			Kernel: e.c.prog.Name,
			Cycle:  e.blockBase + w.vtime,
			Detail: fmt.Sprintf("warp%d issued %d instructions without memory/heap/barrier/exit activity", w.globalID, e.noProg),
		})
		return true
	}
	e.tick++
	if e.ctxArmed && e.tick&1023 == 0 {
		if err := e.ctx.Err(); err != nil {
			e.Fail(&sim.ContextError{Kernel: e.c.prog.Name, Cycle: e.blockBase + w.vtime, Err: err})
			return true
		}
	}
	return false
}

// at locates the instruction at pc of warp w for its fault records. The
// SM index is the block's deterministic SM assignment (ctaid mod
// NumSMs) and the cycle stamp the virtual-time estimate; both are
// scheduling artifacts excluded from the cross-tier functional
// projection.
func (e *engine) at(pc int, w *fwarp) sim.FaultRecord {
	return sim.FaultRecord{PC: pc, SM: e.smID, Warp: w.globalID, Cycle: e.blockBase + w.vtime}
}

// space returns global memory or the block's shared memory.
func (e *engine) space(global bool) *mem.AddrSpace {
	if global {
		return e.Dev.Global
	}
	return e.shared
}
