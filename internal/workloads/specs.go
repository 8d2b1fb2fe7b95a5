package workloads

import (
	"context"
	"fmt"
	"sync"

	"lmi/internal/alloc"
	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/ir"
	"lmi/internal/isa"
	"lmi/internal/safety"
	"lmi/internal/sim"
)

// Spec is one benchmark of the Table V suite.
type Spec struct {
	// Name and Suite identify the benchmark.
	Name  string
	Suite string
	// Params calibrates the synthetic kernel to the real benchmark's
	// profile.
	Params KernelParams
	// Grid and Block are the launch dimensions.
	Grid, Block int
	// DBIGrid is the scaled-down grid used for the DBI experiments
	// (their 30-70x instruction expansion would otherwise dominate
	// harness wall-clock); 0 means use Grid. Overheads are ratios and
	// insensitive to this scaling.
	DBIGrid int
	// N is the element count of the in/out buffers. It must be a power
	// of two when Params.RevisitGlobal is set.
	N uint64
	// AllocTrace is the benchmark's allocation trace for the Fig. 4
	// fragmentation experiment.
	AllocTrace []alloc.Event

	once    sync.Once
	kern    *ir.Func
	kernErr error

	progMu sync.Mutex
	progs  map[Variant]*progEntry

	specOnce sync.Once
	spec     specEntry
}

type progEntry struct {
	prog *isa.Program
	err  error
}

// Kernel returns the benchmark's IR kernel (built once).
func (s *Spec) Kernel() (*ir.Func, error) {
	s.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				s.kernErr = fmt.Errorf("workloads: %s: %v", s.Name, r)
			}
		}()
		s.kern = BuildKernel(s.Name, s.Params)
		s.kernErr = ir.Verify(s.kern)
	})
	return s.kern, s.kernErr
}

// Variant selects the safety mechanism (and matching compilation /
// instrumentation) a benchmark runs under.
type Variant int

// Variants of the evaluation.
const (
	// VariantBase is the unprotected baseline.
	VariantBase Variant = iota
	// VariantLMI is the paper's mechanism (Fig. 12).
	VariantLMI
	// VariantGPUShield is the hardware baseline (Fig. 12).
	VariantGPUShield
	// VariantBaggy is software Baggy Bounds adapted to the GPU (Fig. 12).
	VariantBaggy
	// VariantLMIDBI is the NVBit-style DBI implementation of LMI (Fig. 13).
	VariantLMIDBI
	// VariantMemcheck is Compute Sanitizer's memcheck (Fig. 13).
	VariantMemcheck
	// VariantLMIElide is LMI with static extent-check elision: the bounds
	// analysis proves the guarded accesses in-bounds under the launch
	// contract and the compiler sets the E hint so the LSU skips their
	// extent checks.
	VariantLMIElide
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case VariantBase:
		return "baseline"
	case VariantLMI:
		return "lmi"
	case VariantGPUShield:
		return "gpushield"
	case VariantBaggy:
		return "baggybounds"
	case VariantLMIDBI:
		return "lmi-dbi"
	case VariantMemcheck:
		return "memcheck"
	case VariantLMIElide:
		return "lmi-elide"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Compile builds (and caches) the ISA program for a variant: the right
// compile mode plus any instrumentation pass.
func (s *Spec) Compile(v Variant) (*isa.Program, error) {
	s.progMu.Lock()
	defer s.progMu.Unlock()
	if s.progs == nil {
		s.progs = make(map[Variant]*progEntry)
	}
	if e, ok := s.progs[v]; ok {
		return e.prog, e.err
	}
	p, err := s.compileUncached(v)
	s.progs[v] = &progEntry{prog: p, err: err}
	return p, err
}

// Contract returns the launch contract the benchmark runner honours:
// RunProgramTierAtCtx always passes two s.N-element 4-byte buffers plus
// the count s.N, and the elide experiment launches at exactly (Grid,
// Block). The count floor of 1 keeps the elided program valid for any
// smaller count a caller might legally pass.
func (s *Spec) Contract() bounds.Contract {
	return bounds.Contract{
		CountParam: 2, CountMin: 1, CountMax: int64(s.N),
		PtrBytesPerCount: 4,
		BlockDimX:        int64(s.Block), GridDimX: int64(s.Grid),
	}
}

func (s *Spec) compileUncached(v Variant) (*isa.Program, error) {
	f, err := s.Kernel()
	if err != nil {
		return nil, err
	}
	if v == VariantLMIElide {
		p, _, _, err := compiler.CompileElidedWithSourceMap(f, s.Contract())
		return p, err
	}
	mode := compiler.ModeBase
	if v == VariantLMI || v == VariantBaggy {
		mode = compiler.ModeLMI
	}
	p, err := compiler.Compile(f, mode)
	if err != nil {
		return nil, err
	}
	switch v {
	case VariantBaggy:
		p = compiler.InstrumentBaggy(p)
	case VariantLMIDBI:
		p = compiler.InstrumentDBI(p, compiler.LMIDBIOptions)
	case VariantMemcheck:
		p = compiler.InstrumentDBI(p, compiler.MemcheckOptions)
	}
	return p, nil
}

// NewMechanism constructs the sim.Mechanism for a variant.
func NewMechanism(v Variant) sim.Mechanism {
	switch v {
	case VariantLMI, VariantLMIElide:
		return safety.NewLMI()
	case VariantGPUShield:
		return safety.NewGPUShield()
	case VariantBaggy:
		return safety.NewBaggy()
	default:
		// Baseline hardware: DBI variants carry their checks in the
		// instruction stream.
		return sim.Baseline{}
	}
}

// LaunchGrid returns the grid dimension a variant launches at by
// default: the spec's grid, scaled down to DBIGrid for the DBI variants
// (their 30-70x instruction expansion would otherwise dominate harness
// wall-clock).
func (s *Spec) LaunchGrid(v Variant) int {
	if (v == VariantLMIDBI || v == VariantMemcheck) && s.DBIGrid > 0 {
		return s.DBIGrid
	}
	return s.Grid
}

// Run executes the benchmark under a variant on a fresh device with the
// given configuration and returns the kernel statistics.
func Run(s *Spec, v Variant, cfg sim.Config) (*sim.KernelStats, error) {
	return RunTierAtCtx(context.Background(), s, v, cfg, s.LaunchGrid(v), fastsim.TierCycle)
}

// RunTierAtCtx executes the benchmark under a variant at an explicit
// grid dimension on a selected execution tier: the cycle-level simulator
// (the reference oracle and timing model) or the compiled fast-path
// tier, which reproduces the same functional projection of the launch at
// a fraction of the cost. A cancelled or expired ctx stops the kernel
// mid-simulation with a typed *sim.ContextError (the serving layer's
// per-request deadlines arrive through here).
func RunTierAtCtx(ctx context.Context, s *Spec, v Variant, cfg sim.Config, grid int, tier fastsim.Tier) (*sim.KernelStats, error) {
	prog, err := s.Compile(v)
	if err != nil {
		return nil, err
	}
	return RunProgramTierAtCtx(ctx, s, v, cfg, grid, tier, prog, nil)
}

// RunProgramTierAtCtx launches an explicit program under the
// benchmark's device setup and buffer protocol — the bundle-backed
// serving path, where the program comes from a verified artifact
// rather than an in-process compile. A non-nil cp (the program's
// cached compiled closure) runs on the compiled tier directly;
// otherwise the launch goes through the tier dispatch.
func RunProgramTierAtCtx(ctx context.Context, s *Spec, v Variant, cfg sim.Config, grid int, tier fastsim.Tier, prog *isa.Program, cp *fastsim.Compiled) (*sim.KernelStats, error) {
	dev, err := sim.NewDevice(cfg, NewMechanism(v))
	if err != nil {
		return nil, err
	}
	bytes := s.N * 4
	in, err := dev.Malloc(bytes)
	if err != nil {
		return nil, err
	}
	out, err := dev.Malloc(bytes)
	if err != nil {
		return nil, err
	}
	params := []uint64{in, out, s.N}
	if cp != nil {
		return cp.LaunchCtx(ctx, dev, grid, s.Block, params)
	}
	return fastsim.LaunchTierCtx(ctx, tier, dev, prog, grid, s.Block, params)
}
