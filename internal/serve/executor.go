package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/peval"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// variantByName maps the serving API's mechanism names for plain
// benchmark runs onto workload variants (the same vocabulary lmi-sim
// uses).
var variantByName = map[string]workloads.Variant{
	"baseline":    workloads.VariantBase,
	"lmi":         workloads.VariantLMI,
	"gpushield":   workloads.VariantGPUShield,
	"baggybounds": workloads.VariantBaggy,
	"lmi-dbi":     workloads.VariantLMIDBI,
	"memcheck":    workloads.VariantMemcheck,
}

// Outcome is one execution attempt's result.
type Outcome struct {
	// Err is nil on success, else a typed error (see Classify).
	Err error
	// Cycles is the simulated launch length when stats were produced.
	Cycles uint64
	// ECChecked and ECElided are the launch's extent-check counters
	// (lane accesses checked by the mechanism vs statically elided);
	// the fleet's safety decision records carry them per request.
	ECChecked uint64
	ECElided  uint64
	// Faults is the number of recorded safety-fault records.
	Faults int
	// Outcome is the chaos classification for injection attempts.
	Outcome chaos.Outcome
	// Detail describes what happened.
	Detail string
	// BundleDigest is the digest of the verified bundle the attempt's
	// program came from ("" when the executor compiled in-process).
	BundleDigest string
	// Specialized records that the attempt ran a contract-specialized
	// residual program rather than the general one (the launch matched
	// the residual's concrete contract).
	Specialized bool
}

// Executor runs one request attempt on the simulation stack. It is
// stateless across requests (every attempt gets a fresh device), so it
// is safe for concurrent use by the worker pool, and every attempt is
// a pure function of (request, seed) — the property the soak harness's
// determinism rests on.
type Executor struct {
	inj  *chaos.Injector
	sms  int
	tier fastsim.Tier
	// specialize enables serving contract-specialized residuals for
	// launches that match an entry's concrete contract (general-program
	// fallback on any mismatch). Set before serving starts.
	specialize bool

	// table is the serving program table: a verified bundle swapped
	// atomically by Reload. Each attempt loads one snapshot at dispatch
	// and finishes on it — in-flight requests never observe a swap.
	table atomic.Pointer[bundle.Verified]
	// cache holds compiled closures keyed by bundle-entry digest, so an
	// identical reload stays warm and a changed program can never be
	// served a stale closure.
	cache *fastsim.Cache
}

// NewExecutor builds an executor whose chaos victims are compiled once
// up front. sms sizes the simulated device for requests that do not
// specify their own (<= 0 means 1).
func NewExecutor(sms int) (*Executor, error) {
	return NewExecutorTier(sms, fastsim.TierCycle)
}

// NewExecutorTier is NewExecutor with an explicit execution tier: the
// cycle-level simulator, or the compiled fast-path tier for
// throughput-oriented deployments.
func NewExecutorTier(sms int, tier fastsim.Tier) (*Executor, error) {
	inj, err := chaos.NewInjector(nil)
	if err != nil {
		return nil, err
	}
	inj.Tier = tier
	if sms <= 0 {
		sms = 1
	}
	return &Executor{inj: inj, sms: sms, tier: tier, cache: fastsim.NewCache(0)}, nil
}

// SetSpecialize turns serving of contract-specialized residuals on or
// off. Launches that match a residual's concrete contract run the
// residual; everything else falls back to the general program. Call
// before the executor starts taking requests.
func (e *Executor) SetSpecialize(on bool) { e.specialize = on }

// SetBundle installs a verified bundle as the serving program table.
// On the compiled tier every entry is brought up (compiled through the
// digest-keyed cache) before the swap — a bring-up failure leaves the
// previous table serving, which is the per-shard half of rollback. The
// swap itself is a single atomic store; attempts that loaded the old
// table finish on it. A nil v reverts to in-process compilation.
func (e *Executor) SetBundle(v *bundle.Verified) error {
	if v != nil {
		keep := make(map[string]bool, len(v.Entries()))
		for _, ve := range v.Entries() {
			keep[ve.Digest] = true
			if e.tier == fastsim.TierCompiled {
				if _, err := e.cache.GetDigest(ve.Digest, ve.Prog); err != nil {
					return fmt.Errorf("serve: bundle bring-up: %s: %w", ve.Name+"/"+ve.Mechanism, err)
				}
			}
			// A specialized residual is its own program under its own
			// (digest, contract-shape) cache key; bring it up alongside
			// the general program so the swap is warm for both paths.
			if ve.SpecProg != nil {
				sk := fastsim.SpecKey(ve.Digest, ve.SpecShape)
				keep[sk] = true
				if e.tier == fastsim.TierCompiled {
					if _, err := e.cache.GetDigest(sk, ve.SpecProg); err != nil {
						return fmt.Errorf("serve: bundle bring-up: %s (specialized): %w", ve.Name+"/"+ve.Mechanism, err)
					}
				}
			}
		}
		e.table.Store(v)
		e.cache.RetainDigests(keep)
		return nil
	}
	e.table.Store(nil)
	e.cache.RetainDigests(nil)
	return nil
}

// BundleDigest returns the serving bundle digest ("" when not
// bundle-backed).
func (e *Executor) BundleDigest() string {
	if v := e.table.Load(); v != nil {
		return v.Digest()
	}
	return ""
}

// Injector exposes the underlying chaos injector (the soak stream
// generator uses its mechanism/kind tables).
func (e *Executor) Injector() *chaos.Injector { return e.inj }

// Validate rejects malformed requests with ErrBadRequest before they
// consume queue capacity or a worker.
func (e *Executor) Validate(req Request) error {
	if req.SMs < 0 {
		return fmt.Errorf("%w: sms %d must be >= 1", ErrBadRequest, req.SMs)
	}
	if req.Workload == "" {
		kind := req.Kind
		if kind == "" {
			kind = chaos.KindControl
		}
		kinds := e.inj.EligibleKinds(req.Mechanism)
		if kinds == nil {
			return fmt.Errorf("%w: unknown mechanism %q", ErrBadRequest, req.Mechanism)
		}
		for _, k := range kinds {
			if k == kind {
				return nil
			}
		}
		return fmt.Errorf("%w: injection kind %q not eligible for mechanism %q",
			ErrBadRequest, kind, req.Mechanism)
	}
	if workloads.ByName(req.Workload) == nil {
		return fmt.Errorf("%w: unknown workload %q", ErrBadRequest, req.Workload)
	}
	if _, ok := variantByName[req.Mechanism]; !ok {
		return fmt.Errorf("%w: unknown variant %q", ErrBadRequest, req.Mechanism)
	}
	if req.Kind != "" && req.Kind != chaos.KindControl {
		return fmt.Errorf("%w: injections run on the chaos victims; drop the workload field", ErrBadRequest)
	}
	return nil
}

// Execute runs one attempt. seed is the attempt's private seed (derived
// from the request seed and the attempt number by the retry loop); ctx
// carries the attempt deadline into the simulator's watchdog.
func (e *Executor) Execute(ctx context.Context, req Request, seed uint64) Outcome {
	if err := e.Validate(req); err != nil {
		return Outcome{Err: err, Detail: err.Error()}
	}
	if req.Workload == "" {
		return e.executeChaos(ctx, req, seed)
	}
	return e.executeBench(ctx, req)
}

// executeChaos replays one chaos injection as a request.
func (e *Executor) executeChaos(ctx context.Context, req Request, seed uint64) Outcome {
	kind := req.Kind
	if kind == "" {
		kind = chaos.KindControl
	}
	sms := req.SMs
	if sms == 0 {
		sms = e.sms
	}
	tr, err := e.inj.RunTrial(ctx, req.Mechanism, kind, seed, chaos.TrialConfig(sms))
	if err != nil {
		return Outcome{Err: fmt.Errorf("%w: %v", ErrBadRequest, err), Detail: err.Error()}
	}
	out := Outcome{
		Cycles: tr.Cycles, Outcome: tr.Outcome, Detail: tr.Detail,
		ECChecked: tr.ECChecked, ECElided: tr.ECElided, Faults: tr.Faults,
	}
	switch tr.Outcome {
	case chaos.OutcomeDetected, chaos.OutcomeTolerated, chaos.OutcomeClean:
		// The service did its job: the injection was surfaced or was
		// architecturally benign, and the run's memory state is sound.
	case chaos.OutcomeMissed:
		out.Err = fmt.Errorf("%w: %s", ErrSilentCorruption, tr.Detail)
	case chaos.OutcomeFalsePositive:
		out.Err = fmt.Errorf("%w: %s", ErrFalsePositive, tr.Detail)
	case chaos.OutcomeDegraded:
		// Keep the underlying typed error: watchdog kills and context
		// deadlines classify as retryable, panics and wedged devices as
		// terminal.
		out.Err = tr.Err
		if out.Err == nil {
			out.Err = fmt.Errorf("%w: %s", ErrEngineDegraded, tr.Detail)
		} else if Classify(out.Err) == ClassTerminal {
			out.Err = fmt.Errorf("%w: %v", ErrEngineDegraded, out.Err)
		}
	default:
		out.Err = fmt.Errorf("%w: unclassified trial outcome %q", ErrEngineDegraded, tr.Outcome)
	}
	return out
}

// executeBench runs one plain benchmark attempt.
func (e *Executor) executeBench(ctx context.Context, req Request) Outcome {
	s := workloads.ByName(req.Workload)
	v := variantByName[req.Mechanism]
	sms := req.SMs
	if sms == 0 {
		sms = e.sms
	}
	cfg := chaos.TrialConfig(sms)

	// One snapshot per attempt: the whole attempt runs on the table it
	// loaded here, even if a Reload swaps mid-flight.
	var st *sim.KernelStats
	var err error
	var digest string
	var specialized bool
	grid := s.LaunchGrid(v)
	if snap := e.table.Load(); snap != nil {
		if ve, ok := snap.Lookup(req.Workload, req.Mechanism); ok {
			prog, key := ve.Prog, ve.Digest
			// Serve the residual only when the launch actually matches
			// its concrete contract; any mismatch silently falls back to
			// the general program — specialization is an optimization,
			// never a serving constraint.
			if e.specialize && ve.SpecProg != nil && peval.Match(*ve.SpecContract, s.N, grid, s.Block) {
				prog, key = ve.SpecProg, fastsim.SpecKey(ve.Digest, ve.SpecShape)
				specialized = true
			}
			var cp *fastsim.Compiled
			if e.tier == fastsim.TierCompiled {
				cp, err = e.cache.GetDigest(key, prog)
				if err != nil {
					return Outcome{Err: fmt.Errorf("%w: %v", ErrEngineDegraded, err), Detail: err.Error()}
				}
			}
			st, err = workloads.RunProgramTierAtCtx(ctx, s, v, cfg, grid, e.tier, prog, cp)
			digest = snap.Digest()
		} else {
			st, err = workloads.RunTierAtCtx(ctx, s, v, cfg, grid, e.tier)
		}
	} else if prog := e.directSpecialized(s, req.Mechanism, grid); prog != nil {
		var cp *fastsim.Compiled
		if e.tier == fastsim.TierCompiled {
			cp, err = e.cache.Get(prog)
			if err != nil {
				return Outcome{Err: fmt.Errorf("%w: %v", ErrEngineDegraded, err), Detail: err.Error()}
			}
		}
		specialized = true
		st, err = workloads.RunProgramTierAtCtx(ctx, s, v, cfg, grid, e.tier, prog, cp)
	} else {
		st, err = workloads.RunTierAtCtx(ctx, s, v, cfg, grid, e.tier)
	}
	if err != nil {
		return Outcome{Err: err, Detail: err.Error(), BundleDigest: digest, Specialized: specialized}
	}
	out := Outcome{Cycles: st.Cycles, ECChecked: st.ECChecked, ECElided: st.ECElided,
		Faults: len(st.Faults), BundleDigest: digest, Specialized: specialized}
	switch {
	case len(st.Faults) > 0:
		out.Err = fmt.Errorf("%w: %v", ErrSafetyViolation, st.Faults[0])
		out.Detail = out.Err.Error()
	case st.Halted:
		out.Err = fmt.Errorf("%w: kernel halted with no recorded fault", ErrEngineDegraded)
		out.Detail = out.Err.Error()
	default:
		out.Detail = fmt.Sprintf("completed in %d cycles", st.Cycles)
	}
	return out
}

// directSpecialized returns the in-process specialized residual for a
// workload when residual serving is on, the mechanism is the LMI one
// the specializer targets, and the launch matches the workload's
// concrete contract; nil otherwise (callers fall back to the general
// compile path).
func (e *Executor) directSpecialized(s *workloads.Spec, mechanism string, grid int) *isa.Program {
	if !e.specialize || mechanism != "lmi" {
		return nil
	}
	res, err := s.Specialized()
	if err != nil || !peval.Match(res.Cert.Contract, s.N, grid, s.Block) {
		return nil
	}
	return res.Residual
}
