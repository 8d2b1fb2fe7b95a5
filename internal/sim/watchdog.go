package sim

import (
	"fmt"
	"time"
)

// WatchdogConfig arms the launch watchdog. All-zero (the default)
// disables every detector, preserving the historical behaviour of
// running until completion or Config.MaxCycles. The detectors are
// deliberately distinct from MaxCycles: the cycle limit bounds total
// simulated work, while the watchdog recognises *stuck* simulations —
// kernels that will never finish no matter how many cycles they get —
// and hung host processes.
type WatchdogConfig struct {
	// WallClock aborts the launch once this much host wall-clock time has
	// elapsed. It is a safety net against simulator bugs (not guest
	// behaviour) and is inherently nondeterministic; deterministic
	// campaigns should set it generously so it never fires on healthy
	// trials.
	WallClock time.Duration
	// BarrierStallCycles aborts when any warp has been parked at a
	// barrier for more than this many cycles without its block releasing
	// — the barrier-divergence deadlock (some sibling warp spins or
	// starves forever and never reaches the bar).
	BarrierStallCycles uint64
	// NoProgressCycles aborts after this many consecutive cycles without
	// forward progress. Progress is observable work: a memory or heap
	// instruction, a barrier release, a warp exit, or a block retiring —
	// so a pure-ALU infinite loop trips the detector even though it
	// issues instructions every cycle.
	NoProgressCycles uint64
	// CheckEveryCycles is the polling interval; 0 means every 1024
	// cycles. Detection is therefore quantised — deterministic for the
	// cycle-based detectors regardless of host load.
	CheckEveryCycles uint64
}

// enabled reports whether any detector is armed.
func (w WatchdogConfig) enabled() bool {
	return w.WallClock > 0 || w.BarrierStallCycles > 0 || w.NoProgressCycles > 0
}

// defaultWatchdogPoll is the polling interval when CheckEveryCycles is 0.
const defaultWatchdogPoll = 1024

// WatchdogKind identifies which detector fired.
type WatchdogKind string

const (
	// WatchdogWallClock is the host wall-clock deadline.
	WatchdogWallClock WatchdogKind = "wall-clock"
	// WatchdogBarrierDeadlock is a warp stuck at a barrier its block
	// never releases.
	WatchdogBarrierDeadlock WatchdogKind = "barrier-deadlock"
	// WatchdogNoProgress is a launch issuing instructions but performing
	// no observable work.
	WatchdogNoProgress WatchdogKind = "no-progress"
)

// WatchdogError reports a launch killed by the watchdog. The launch
// returns no KernelStats: a stuck kernel has no meaningful statistics.
type WatchdogError struct {
	Kind   WatchdogKind
	Kernel string
	// Cycle is the simulated cycle at which the detector fired.
	Cycle uint64
	// Detail locates the stall (e.g. the parked warp).
	Detail string
}

// Error implements error.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog(%s): kernel %s at cycle %d: %s",
		e.Kind, e.Kernel, e.Cycle, e.Detail)
}

// ContextError reports a launch aborted because its context was
// cancelled or its deadline expired mid-kernel. It wraps the context's
// error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work; the serving layer
// uses that to separate abandoned requests from deadline overruns. Like
// the watchdog kills, an aborted launch returns no KernelStats.
type ContextError struct {
	Kernel string
	// Cycle is the simulated cycle at which the cancellation was observed
	// (quantised to the watchdog polling interval).
	Cycle uint64
	// Err is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

// Error implements error.
func (e *ContextError) Error() string {
	return fmt.Sprintf("sim: kernel %s aborted at cycle %d: %v", e.Kernel, e.Cycle, e.Err)
}

// Unwrap exposes the context's error to errors.Is/As.
func (e *ContextError) Unwrap() error { return e.Err }

// CycleLimitError reports a launch that overran Config.MaxCycles. The
// message keeps the historical "exceeded N cycles" phrasing.
type CycleLimitError struct {
	Kernel string
	Limit  uint64
}

// Error implements error.
func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("sim: kernel %s exceeded %d cycles", e.Kernel, e.Limit)
}

// PanicError is a panic recovered at the Device API boundary (Launch,
// Malloc, Free): the simulator or a mechanism plug-in panicked, and the
// caller receives it as an error instead of a crashed process.
type PanicError struct {
	// Op is the API operation during which the panic surfaced.
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: panic during %s: %v", e.Op, e.Value)
}

// progress records that the launch performed observable work this cycle.
func (ls *launch) progress() { ls.lastProgress = ls.cycle }

// watchdogCheck runs the armed detectors; a non-nil result aborts the
// launch. Called every CheckEveryCycles from the run loop. The launch
// context is the first detector checked: a cancelled or expired request
// stops mid-kernel with a typed ContextError instead of running to
// MaxCycles, which is how per-request deadlines reach the simulator.
func (ls *launch) watchdogCheck(wd *WatchdogConfig) error {
	if ls.ctx != nil {
		if err := ls.ctx.Err(); err != nil {
			return &ContextError{Kernel: ls.Prog.Name, Cycle: ls.cycle, Err: err}
		}
	}
	if wd.BarrierStallCycles > 0 {
		for _, sm := range ls.sms {
			for _, w := range sm.warps {
				if w.atBarrier && ls.cycle-w.barrierSince > wd.BarrierStallCycles {
					return &WatchdogError{
						Kind:   WatchdogBarrierDeadlock,
						Kernel: ls.Prog.Name,
						Cycle:  ls.cycle,
						Detail: fmt.Sprintf("SM%d warp%d parked at barrier since cycle %d (block %d never released)",
							sm.id, w.globalID, w.barrierSince, w.block.ctaid),
					}
				}
			}
		}
	}
	if wd.NoProgressCycles > 0 && ls.cycle-ls.lastProgress > wd.NoProgressCycles {
		return &WatchdogError{
			Kind:   WatchdogNoProgress,
			Kernel: ls.Prog.Name,
			Cycle:  ls.cycle,
			Detail: fmt.Sprintf("no memory/heap/barrier/exit activity since cycle %d", ls.lastProgress),
		}
	}
	if wd.WallClock > 0 && time.Since(ls.wallStart) > wd.WallClock {
		return &WatchdogError{
			Kind:   WatchdogWallClock,
			Kernel: ls.Prog.Name,
			Cycle:  ls.cycle,
			Detail: fmt.Sprintf("host deadline %v elapsed", wd.WallClock),
		}
	}
	return nil
}
