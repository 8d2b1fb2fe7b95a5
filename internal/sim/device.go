package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"lmi/internal/alloc"
	"lmi/internal/isa"
	"lmi/internal/mem"
)

// TraceEvent is one dynamically executed warp instruction, delivered to
// an attached Tracer (the NVBit-style instrumentation point).
type TraceEvent struct {
	PC     int
	Op     isa.Opcode
	SM     int
	Warp   int
	Active uint32
	HintA  bool
	// Addrs holds per-active-lane effective addresses for memory
	// operations. The slice is reused between events; tracers must copy
	// what they keep.
	Addrs []uint64
}

// Tracer observes every executed warp instruction.
type Tracer interface {
	Trace(ev *TraceEvent)
}

// Device is a simulated GPU: memory system, allocators, and a safety
// mechanism. A Device persists across kernel launches the way a real
// device does; global memory contents and host-side allocations survive.
type Device struct {
	Cfg  Config
	Mech Mechanism

	// Global is the device global-memory image.
	Global *mem.AddrSpace

	// Tracer, when non-nil, receives every executed warp instruction.
	Tracer Tracer

	galloc *alloc.GlobalAllocator
	heap   *alloc.DeviceHeap
}

// NewDevice builds a device with the given configuration and mechanism.
func NewDevice(cfg Config, mech Mechanism) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mech == nil {
		mech = Baseline{}
	}
	return &Device{
		Cfg:    cfg,
		Mech:   mech,
		Global: mem.NewAddrSpace(),
		galloc: alloc.NewDefaultGlobalAllocator(mech.AllocPolicy()),
		heap:   alloc.NewDefaultDeviceHeap(mech.AllocPolicy()),
	}, nil
}

// Malloc is the cudaMalloc analogue: it allocates device global memory
// and returns the (mechanism-tagged) pointer value to pass as a kernel
// parameter.
func (d *Device) Malloc(size uint64) (ptr uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			ptr, err = 0, &PanicError{Op: "Malloc", Value: r, Stack: debug.Stack()}
		}
	}()
	b, err := d.galloc.Alloc(size)
	if err != nil {
		return 0, err
	}
	val, err := d.Mech.TagAlloc(b, isa.SpaceGlobal)
	if err != nil {
		// Tagging failed — the block is unusable; return it so the arena
		// does not leak.
		_ = d.galloc.Free(b.Addr)
		return 0, err
	}
	return val, nil
}

// Free is the cudaFree analogue.
func (d *Device) Free(ptr uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Op: "Free", Value: r, Stack: debug.Stack()}
		}
	}()
	return d.galloc.Free(d.Mech.UntagFree(ptr, isa.SpaceGlobal))
}

// WriteGlobal copies host data into device global memory at a pointer
// returned by Malloc (tag bits are stripped via the mechanism).
func (d *Device) WriteGlobal(ptr uint64, data []byte) {
	d.Global.WriteBytes(d.Mech.Canonical(ptr), data)
}

// ReadGlobal copies device global memory back to the host.
func (d *Device) ReadGlobal(ptr uint64, size int) []byte {
	return d.Global.ReadBytes(d.Mech.Canonical(ptr), size)
}

// warp is a resident warp's execution state.
type warp struct {
	globalID int // launch order, for GTO ageing
	block    *blockCtx
	warpIdx  int // index within the block
	sm       *smCtx

	launchMask uint32
	// rf is the register file, register-major: register r's 32 lanes
	// are the row rf[r*32 : r*32+32] (see launch.row), 32 lanes wide even
	// for a partial warp.
	rf     []uint64
	preds  [8]uint32 // predicate registers as lane masks; preds[PT] = launchMask
	locals Locals

	SIMT

	regReady  []uint64 // per register, the cycle its pending write lands
	predReady [8]uint64
	nextIssue uint64
	// readyAt is the first cycle at which the scoreboard admits the
	// warp's next instruction. The scoreboard only changes when the warp
	// itself issues, so readyAt is recomputed there (updateReady); a
	// freshly placed warp is ready at cycle 0.
	readyAt uint64

	atBarrier bool
	// barrierSince is the cycle the warp parked at its current barrier
	// (meaningful only while atBarrier), for deadlock detection.
	barrierSince uint64
	done         bool
}

// blockCtx is a resident thread block. A retired block's context, warp
// slots included, is recycled for a later block of the same launch.
type blockCtx struct {
	ctaid  int
	shared *mem.AddrSpace
	warps  []*warp
	// race is the block's dynamic race-oracle shadow (nil when the
	// oracle is off).
	race *BlockShadow
	// live counts the warps that have not finished and parked the live
	// warps waiting at the barrier: the barrier releases when every live
	// warp is parked, and the block retires when none is live.
	live, parked int
}

// smCtx is one SM's runtime state.
type smCtx struct {
	id     int
	l1     *mem.Cache
	blocks []*blockCtx
	warps  []*warp // sorted by globalID: placed in ctaid order, compacted in place
	greedy []int   // per-scheduler greedy warp (index into warps), -1 none
	// wake is the first cycle the SM can act again; the run loop skips
	// the SM before it.
	wake uint64
	// releasable counts the resident blocks whose live warps are all
	// parked at the barrier, finished those with no live warp; stepSM
	// scans its blocks only when one is nonzero.
	releasable, finished int
}

// launch is the transient state of one kernel execution: the state both
// tiers share plus the cycle tier's scheduling and memory hierarchy.
type launch struct {
	Exec
	// ctx bounds the launch: cancellation or deadline expiry is observed
	// at the watchdog polling cadence and aborts with a ContextError.
	ctx context.Context

	l2   *mem.Cache
	dram *mem.DRAM

	sms       []*smCtx
	nextBlock int
	liveBlk   int
	// free holds retired blocks whose contexts and warp slots placeBlock
	// reuses.
	free []*blockCtx

	// imm is each instruction's broadcast row of its immediate operand
	// (see immRows), alu its resolved ALU semantics and mem its memory
	// access kernel, all indexed by pc; zero is the row RZ reads, and res
	// the scratch result row of an ALU op that commits only some lanes
	// (and the discard row of RZ loads).
	imm  []*[32]uint64
	alu  []isa.ALU
	mem  []MemKernel
	zero [32]uint64
	res  [32]uint64

	cycle uint64

	// Watchdog state: launch wall-clock start and the cycle of the last
	// observable progress event (see WatchdogConfig).
	wallStart    time.Time
	lastProgress uint64
}

// Launch runs a kernel to completion and returns its statistics with a
// 1-D grid; params are the kernel parameter words (pointers from Malloc,
// scalars).
func (d *Device) Launch(p *isa.Program, gridDim, blockDim int, params []uint64) (*KernelStats, error) {
	return d.Launch2DCtx(context.Background(), p, gridDim, 1, blockDim, 1, params)
}

// LaunchCtx is Launch bounded by a context: once ctx is cancelled or
// its deadline expires, the run loop aborts at the next watchdog poll
// with a typed *ContextError wrapping the context's error.
func (d *Device) LaunchCtx(ctx context.Context, p *isa.Program, gridDim, blockDim int, params []uint64) (*KernelStats, error) {
	return d.Launch2DCtx(ctx, p, gridDim, 1, blockDim, 1, params)
}

// Launch2D runs a kernel with a 2-D grid and 2-D blocks. Threads are
// linearised row-major within a block (tid = tidY*blockDimX + tidX), as
// on real hardware; special registers expose both coordinates.
func (d *Device) Launch2D(p *isa.Program, gridX, gridY, blockX, blockY int, params []uint64) (*KernelStats, error) {
	return d.Launch2DCtx(context.Background(), p, gridX, gridY, blockX, blockY, params)
}

// Launch2DCtx is Launch2D bounded by a context (see LaunchCtx).
func (d *Device) Launch2DCtx(ctx context.Context, p *isa.Program, gridX, gridY, blockX, blockY int, params []uint64) (st *KernelStats, err error) {
	// The launch path executes guest programs through mechanism plug-ins
	// and the memory model; a panic anywhere below (a buggy mechanism, a
	// corrupted program) surfaces as a typed error, never a crashed host.
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, &PanicError{Op: "Launch", Value: r, Stack: debug.Stack()}
		}
	}()
	ls := &launch{ctx: ctx}
	if err := ls.Begin(d, p, gridX, gridY, blockX, blockY, params); err != nil {
		return nil, err
	}
	l2, err := mem.NewCache("L2", d.Cfg.L2Size, d.Cfg.L2Assoc, d.Cfg.LineSize, d.Cfg.L2Latency)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	ls.l2, ls.dram = l2, mem.NewDRAM(d.Cfg.DRAMLatency, d.Cfg.DRAMBandwidth)
	ls.imm = immRows(p)
	ls.alu = make([]isa.ALU, len(p.Instrs))
	ls.mem = make([]MemKernel, len(p.Instrs))
	for pc := range p.Instrs {
		ls.alu[pc] = p.Instrs[pc].ALU()
		ls.mem[pc] = MemKernelOf(&p.Instrs[pc])
	}
	for i := 0; i < d.Cfg.NumSMs; i++ {
		l1, err := mem.NewCache("L1", d.Cfg.L1Size, d.Cfg.L1Assoc, d.Cfg.LineSize, d.Cfg.L1Latency)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		ls.sms = append(ls.sms, &smCtx{
			id:     i,
			l1:     l1,
			greedy: make([]int, d.Cfg.SchedulersPerSM),
		})
		for s := range ls.sms[i].greedy {
			ls.sms[i].greedy[s] = -1
		}
	}
	ls.fillSMs()
	if err := ls.run(); err != nil {
		return nil, err
	}
	out := ls.End()
	out.Cycles = ls.cycle
	out.L2 = ls.l2.Stats()
	out.DRAMAccesses = ls.dram.Stats().Accesses
	for _, sm := range ls.sms {
		s := sm.l1.Stats()
		out.L1.Accesses += s.Accesses
		out.L1.Hits += s.Hits
		out.L1.Misses += s.Misses
	}
	return out, nil
}

// immRows builds the broadcast row of each instruction's sign-extended
// immediate operand, indexed by instruction (nil without one).
func immRows(p *isa.Program) []*[32]uint64 {
	imm := make([]*[32]uint64, len(p.Instrs))
	for pc := range p.Instrs {
		if in := &p.Instrs[pc]; in.HasImm && in.Op.ImmSrcIndex() >= 0 {
			r := new([32]uint64)
			for l := range r {
				r[l] = isa.Sx32(in.Imm)
			}
			imm[pc] = r
		}
	}
	return imm
}

// warpsPerBlock returns the warp count for the launch's block dimension.
func (ls *launch) warpsPerBlock() int { return (ls.Block + 31) / 32 }

// smHasRoom reports whether an SM can host one more block of this
// launch, considering block slots, warp slots, and shared-memory
// occupancy.
func (ls *launch) smHasRoom(sm *smCtx) bool {
	cfg := &ls.Dev.Cfg
	if len(sm.blocks) >= cfg.MaxBlocksPerSM {
		return false
	}
	if len(sm.warps)+ls.warpsPerBlock() > cfg.MaxWarpsPerSM {
		return false
	}
	if cfg.SharedMemPerSM > 0 && ls.Prog.SharedSize > 0 {
		used := uint64(len(sm.blocks)) * uint64(ls.Prog.SharedSize)
		if used+uint64(ls.Prog.SharedSize) > cfg.SharedMemPerSM {
			return false
		}
	}
	return true
}

// fillSMs assigns pending blocks to SMs with free slots.
func (ls *launch) fillSMs() {
	for _, sm := range ls.sms {
		for ls.nextBlock < ls.Grid && ls.smHasRoom(sm) {
			ls.placeBlock(sm, ls.nextBlock)
			ls.nextBlock++
			ls.liveBlk++
		}
	}
}

// placeBlock instantiates block ctaid on an SM, reusing a retired
// block's context and warp slots when there is one: every warp is reset
// to its launch state, its register rows and scoreboard cleared, and
// the shared and local memories are reset, keeping their page frames.
func (ls *launch) placeBlock(sm *smCtx, ctaid int) {
	var blk *blockCtx
	if n := len(ls.free); n > 0 {
		blk = ls.free[n-1]
		ls.free = ls.free[:n-1]
	} else {
		blk = &blockCtx{shared: mem.NewAddrSpace()}
		nregs := ls.Prog.RegFileWidth()
		for wi := 0; wi < ls.warpsPerBlock(); wi++ {
			lanes := min(ls.Block-wi*32, 32)
			blk.warps = append(blk.warps, &warp{
				rf:       make([]uint64, nregs*32),
				regReady: make([]uint64, nregs),
				locals:   make(Locals, lanes),
			})
		}
	}
	blk.ctaid = ctaid
	blk.shared.Reset()
	blk.race = nil
	if ls.Race != nil {
		blk.race = ls.Race.NewBlockShadow()
	}
	blk.live, blk.parked = len(blk.warps), 0
	for wi, w := range blk.warps {
		mask := uint32(1)<<uint(len(w.locals)) - 1 // one local space per lane
		clear(w.rf)
		clear(w.regReady)
		w.locals.Reset()
		*w = warp{
			globalID:   ctaid*len(blk.warps) + wi,
			block:      blk,
			warpIdx:    wi,
			sm:         sm,
			launchMask: mask,
			rf:         w.rf,
			locals:     w.locals,
			SIMT:       w.SIMT,
			regReady:   w.regReady,
		}
		w.Reset(mask)
		w.preds[isa.PT] = mask
		sm.warps = append(sm.warps, w)
	}
	sm.blocks = append(sm.blocks, blk)
}

// run executes the cycle loop. An SM that did nothing in a cycle sleeps
// until its earliest warp readyAt; when every SM sleeps, the clock jumps
// to the earliest wake, but never past the next watchdog poll (so the
// detectors fire on the same cycle) or past MaxCycles+1 (so the cycle
// limit trips at the same cycle).
func (ls *launch) run() error {
	cfg := ls.Dev.Cfg
	wd := cfg.Watchdog
	// A context that can actually fire (context.Background cannot) arms
	// the polling loop even when no other detector is configured.
	wdArmed := wd.enabled() || (ls.ctx != nil && ls.ctx.Done() != nil)
	wdPoll := wd.CheckEveryCycles
	if wdPoll == 0 {
		wdPoll = defaultWatchdogPoll
	}
	if wdArmed {
		ls.wallStart = time.Now()
	}
	for ls.liveBlk > 0 || ls.nextBlock < ls.Grid {
		if ls.Halted {
			break
		}
		if ls.cycle > cfg.MaxCycles {
			return &CycleLimitError{Kernel: ls.Prog.Name, Limit: cfg.MaxCycles}
		}
		if wdArmed && ls.cycle%wdPoll == 0 {
			if err := ls.watchdogCheck(&wd); err != nil {
				return err
			}
		}
		next := uint64(math.MaxUint64)
		for _, sm := range ls.sms {
			if sm.wake <= ls.cycle {
				if ls.stepSM(sm) {
					sm.wake = ls.cycle + 1
				} else {
					sm.wake = sm.earliestReady()
				}
			}
			next = min(next, sm.wake)
			if ls.Halted {
				break
			}
		}
		// Every wake is past this cycle: a stepped SM that did nothing
		// has no warp ready before its earliest readyAt.
		if wdArmed {
			next = min(next, (ls.cycle/wdPoll+1)*wdPoll)
		}
		if next-1 > cfg.MaxCycles {
			next = cfg.MaxCycles + 1
		}
		ls.cycle = next
	}
	return ls.Err
}

// stepSM advances one SM by one cycle: barrier release, then one issue per
// scheduler, then block retirement. It reports whether any of the three
// happened; if none did, nothing on the SM changes until a warp's
// readyAt.
func (ls *launch) stepSM(sm *smCtx) bool {
	active := false
	// Barrier release: all live warps of a block parked -> release.
	if sm.releasable > 0 {
		for _, blk := range sm.blocks {
			if blk.parked == 0 || blk.parked != blk.live {
				continue
			}
			for _, w := range blk.warps {
				w.atBarrier = false
			}
			blk.parked = 0
			if blk.race != nil {
				blk.race.EpochEnd()
			}
			ls.progress()
		}
		sm.releasable = 0
		active = true
	}
	nsched := ls.Dev.Cfg.SchedulersPerSM
	for s := 0; s < nsched; s++ {
		// GTO: keep issuing the greedy warp while it is ready; otherwise
		// pick the oldest ready warp. Scheduler s owns the warps at
		// indices s, s+nsched, ...; sm.warps is sorted by age, so the
		// first ready one is the oldest.
		pick := -1
		if g := sm.greedy[s]; g >= 0 && ls.warpReady(sm.warps[g]) {
			pick = g
		} else {
			for i := s; i < len(sm.warps); i += nsched {
				if ls.warpReady(sm.warps[i]) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			continue
		}
		active = true
		sm.greedy[s] = pick
		w := sm.warps[pick]
		ls.issue(sm, w)
		if ls.Halted {
			return true
		}
		ls.updateReady(w)
	}
	// Retire finished blocks and pull new ones.
	return ls.retireBlocks(sm) || active
}

// earliestReady is the first cycle at which one of the SM's warps can
// issue: the smallest readyAt among live warps not parked at a barrier
// (MaxUint64 when there is none).
func (sm *smCtx) earliestReady() uint64 {
	wake := uint64(math.MaxUint64)
	for _, w := range sm.warps {
		if !w.done && !w.atBarrier {
			wake = min(wake, w.readyAt)
		}
	}
	return wake
}

// retireBlocks removes completed blocks from an SM, recycles them and
// refills the SM, reporting whether any block retired.
func (ls *launch) retireBlocks(sm *smCtx) bool {
	if sm.finished == 0 {
		return false
	}
	sm.finished = 0
	keptBlocks := sm.blocks[:0]
	for _, blk := range sm.blocks {
		if blk.live == 0 {
			ls.liveBlk--
			if blk.race != nil {
				blk.race.EpochEnd()
			}
			ls.progress()
			ls.free = append(ls.free, blk)
		} else {
			keptBlocks = append(keptBlocks, blk)
		}
	}
	sm.blocks = keptBlocks
	keptWarps := sm.warps[:0]
	for _, w := range sm.warps {
		if !w.done {
			keptWarps = append(keptWarps, w)
		}
	}
	sm.warps = keptWarps
	for s := range sm.greedy {
		sm.greedy[s] = -1
	}
	for ls.nextBlock < ls.Grid && ls.smHasRoom(sm) {
		ls.placeBlock(sm, ls.nextBlock)
		ls.nextBlock++
		ls.liveBlk++
	}
	return true
}

// syncTop is SIMT.Sync; the call that empties the stack finishes the
// warp and updates its block's counters.
func (w *warp) syncTop() bool {
	if w.Sync() {
		return true
	}
	if !w.done {
		w.finish()
	}
	return false
}

// finish marks the warp done: its block has one live warp fewer, which
// either retires the block or may complete its barrier.
func (w *warp) finish() {
	w.done = true
	blk := w.block
	blk.live--
	switch {
	case blk.live == 0:
		w.sm.finished++
	case blk.parked == blk.live:
		w.sm.releasable++
	}
}

// warpReady reports whether the warp can issue this cycle.
func (ls *launch) warpReady(w *warp) bool {
	return !w.done && !w.atBarrier && w.readyAt <= ls.cycle
}

// updateReady recomputes w.readyAt after the warp issued: the latest of
// its next issue slot and the ready cycles of the next instruction's
// guard predicate, source and destination registers (reads and in-order
// writeback) and SEL predicate.
func (ls *launch) updateReady(w *warp) {
	if !w.syncTop() {
		return
	}
	in := &ls.Prog.Instrs[w.PC()]
	r := max(w.nextIssue, w.predReady[in.Pred&7])
	for _, s := range in.Src {
		if s != isa.RZ {
			r = max(r, w.regReady[s])
		}
	}
	if in.Op == isa.SETP || in.Op == isa.FSETP {
		r = max(r, w.predReady[in.Dst&7])
	} else if in.Dst != isa.RZ {
		r = max(r, w.regReady[in.Dst])
	}
	if in.Op == isa.SEL {
		r = max(r, w.predReady[in.Aux&7])
	}
	w.readyAt = r
}
