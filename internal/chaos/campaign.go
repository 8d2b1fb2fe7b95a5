package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/race"
	"lmi/internal/runner"
	"lmi/internal/safety"
	"lmi/internal/sim"
)

// mechDef binds a mechanism name to its construction and compilation
// pipeline plus the injection kinds that are meaningful for it.
type mechDef struct {
	name string
	make func() sim.Mechanism
	mode compiler.Mode
	// instrument post-processes the compiled program (software
	// mechanisms carry their checks in the instruction stream).
	instrument func(*isa.Program) *isa.Program
	// hinted marks mechanisms driven by the A/S microcode hints and the
	// OCU hook; hint and OCU-misdecode injections only apply to these.
	hinted bool
	// pow2 marks mechanisms whose metadata encodes 2^n size classes;
	// the alloc-misround injection only applies to these.
	pow2 bool
}

// mechDefs returns the evaluated mechanisms in their fixed campaign
// order.
func mechDefs() []mechDef {
	return []mechDef{
		{name: "lmi", make: func() sim.Mechanism { return safety.NewLMI() },
			mode: compiler.ModeLMI, hinted: true, pow2: true},
		{name: "lmi+track", make: func() sim.Mechanism { return safety.NewLMIWithTracking(false) },
			mode: compiler.ModeLMI, hinted: true, pow2: true},
		{name: "baggybounds", make: func() sim.Mechanism { return safety.NewBaggy() },
			mode: compiler.ModeLMI, instrument: compiler.InstrumentBaggy, pow2: true},
		{name: "gpushield", make: func() sim.Mechanism { return safety.NewGPUShield() },
			mode: compiler.ModeBase},
	}
}

// eligible reports whether an injection kind is meaningful for the
// mechanism: hint/OCU kinds need the hinted microcode path, and
// misround needs size-class metadata to mis-round.
func (d *mechDef) eligible(k Kind) bool {
	switch k {
	case KindHintDrop, KindHintSpurious, KindOCUMisdecode, KindSpuriousElide:
		return d.hinted
	case KindAllocMisround:
		return d.pow2
	}
	return true
}

// Campaign configures one fault-injection run.
type Campaign struct {
	// Seed is the campaign master seed; every trial derives its private
	// stream from it and its index.
	Seed uint64
	// Trials is the repetition count per (mechanism, kind) cell
	// (default 6).
	Trials int
	// Workers sizes the worker pool (<= 0 uses runner.DefaultWorkers).
	// The report is byte-identical for any value.
	Workers int
	// SMs is the simulated SM count per trial device (default 1).
	SMs int
	// Mechs restricts the campaign to the named mechanisms (nil runs
	// all of lmi, lmi+track, baggybounds, gpushield).
	Mechs []string
	// Tier selects the execution tier trials simulate on (default the
	// cycle-level simulator; the compiled tier trades cycle fidelity
	// for throughput).
	Tier fastsim.Tier

	// wrap, when non-nil, post-processes every trial's mechanism before
	// the device is built. It is the test hook proving the engine
	// contains misbehaving (panicking) mechanism plug-ins.
	wrap func(mech string, m sim.Mechanism) sim.Mechanism
}

// TrialConfig is the per-trial simulator configuration shared by the
// campaign and the serving layer: a small device (sms <= 0 means 1),
// hard fault halt, and the cycle-based watchdog detectors armed (the
// wall-clock detector stays off — its firing point is host-dependent
// and would break the byte-identical-output guarantee).
func TrialConfig(sms int) sim.Config {
	if sms <= 0 {
		sms = 1
	}
	cfg := sim.ScaledConfig(sms)
	cfg.HaltOnFault = true
	cfg.MaxCycles = 50_000_000
	cfg.Watchdog = sim.WatchdogConfig{
		BarrierStallCycles: 200_000,
		NoProgressCycles:   500_000,
		CheckEveryCycles:   1024,
	}
	return cfg
}

// compiledVictims is one mechanism's compile cache. Programs are
// immutable; injection kinds that rewrite code clone first.
type compiledVictims struct {
	stream *isa.Program
	oob    *isa.Program
	race   *isa.Program
}

// Injector owns the compiled victim programs and runs individual
// injection trials on demand. The campaign engine enumerates the full
// (mechanism, kind) matrix over one; the serving layer replays single
// injections per request. Compilation happens once in NewInjector, so
// per-trial cost is pure simulation.
type Injector struct {
	defs  []mechDef
	progs map[string]compiledVictims

	// Tier selects the execution tier trials simulate on (default the
	// cycle-level simulator).
	Tier fastsim.Tier

	// cache is the fast-path tier's bounded compile cache, warmed with
	// the stable victim programs on the first compiled-tier launch. Its
	// capacity exactly fits the stable set, so per-trial mutated clones
	// (fresh pointers every trial) compile but are never retained.
	cache    *fastsim.Cache
	warmOnce sync.Once

	// wrap, when non-nil, post-processes every trial's mechanism before
	// the device is built. It is the test hook proving the engine
	// contains misbehaving (panicking) mechanism plug-ins.
	wrap func(mech string, m sim.Mechanism) sim.Mechanism
}

// launchTier launches a victim on the injector's tier. The compiled
// tier goes through the warm per-injector cache, so a long-lived
// serving shard compiles each stable victim once and then only pays
// simulation per request.
func (inj *Injector) launchTier(ctx context.Context, dev *sim.Device, p *isa.Program,
	gridDim, blockDim int, params []uint64) (*sim.KernelStats, error) {
	if inj.Tier == fastsim.TierCycle {
		return dev.LaunchCtx(ctx, p, gridDim, blockDim, params)
	}
	inj.warmOnce.Do(func() {
		for _, d := range inj.defs {
			pv := inj.progs[d.name]
			inj.cache.Warm(pv.stream, pv.oob, pv.race)
		}
	})
	c, err := inj.cache.Get(p)
	if err != nil {
		return nil, err
	}
	return c.LaunchCtx(ctx, dev, gridDim, blockDim, params)
}

// NewInjector compiles the victim kernels for the named mechanisms
// (nil or empty runs all of lmi, lmi+track, baggybounds, gpushield).
func NewInjector(mechs []string) (*Injector, error) {
	defs := mechDefs()
	if len(mechs) > 0 {
		want := make(map[string]bool, len(mechs))
		for _, m := range mechs {
			want[m] = true
		}
		kept := defs[:0]
		for _, d := range defs {
			if want[d.name] {
				kept = append(kept, d)
			}
		}
		defs = kept
		if len(defs) == 0 {
			return nil, fmt.Errorf("chaos: no known mechanism in %v", mechs)
		}
	}
	progs := make(map[string]compiledVictims, len(defs))
	for _, d := range defs {
		stream, err := compiler.Compile(streamKernel(), d.mode)
		if err != nil {
			return nil, fmt.Errorf("chaos: compile stream victim for %s: %w", d.name, err)
		}
		oob, err := compiler.Compile(oobKernel(), d.mode)
		if err != nil {
			return nil, fmt.Errorf("chaos: compile oob victim for %s: %w", d.name, err)
		}
		race, err := compiler.Compile(raceKernel(), d.mode)
		if err != nil {
			return nil, fmt.Errorf("chaos: compile race victim for %s: %w", d.name, err)
		}
		if d.instrument != nil {
			stream, oob, race = d.instrument(stream), d.instrument(oob), d.instrument(race)
		}
		progs[d.name] = compiledVictims{stream: stream, oob: oob, race: race}
	}
	return &Injector{defs: defs, progs: progs, cache: fastsim.NewCache(3 * len(defs))}, nil
}

// Mechanisms returns the injector's mechanism names in their fixed
// campaign order.
func (inj *Injector) Mechanisms() []string {
	out := make([]string, len(inj.defs))
	for i, d := range inj.defs {
		out[i] = d.name
	}
	return out
}

// EligibleKinds returns the injection kinds meaningful for a mechanism,
// in their fixed campaign order (nil for an unknown mechanism).
func (inj *Injector) EligibleKinds(mech string) []Kind {
	for i := range inj.defs {
		if inj.defs[i].name != mech {
			continue
		}
		var out []Kind
		for _, k := range Kinds() {
			if inj.defs[i].eligible(k) {
				out = append(out, k)
			}
		}
		return out
	}
	return nil
}

// RunTrial executes one injection of the given kind against the named
// mechanism on a fresh device and classifies it. The trial is a pure
// function of (mech, kind, seed, cfg); ctx bounds the simulation (a
// cancellation surfaces as a Degraded trial carrying the typed
// *sim.ContextError). The returned error is non-nil only for an unknown
// mechanism or an ineligible kind — caller bugs, not trial outcomes.
func (inj *Injector) RunTrial(ctx context.Context, mech string, kind Kind, seed uint64, cfg sim.Config) (Trial, error) {
	for i := range inj.defs {
		if inj.defs[i].name != mech {
			continue
		}
		if !inj.defs[i].eligible(kind) {
			return Trial{}, fmt.Errorf("chaos: kind %s is not eligible for mechanism %s", kind, mech)
		}
		return inj.runTrial(ctx, inj.defs[i], kind, seed, cfg), nil
	}
	return Trial{}, fmt.Errorf("chaos: unknown mechanism %q", mech)
}

// Report is a completed campaign: every trial in enumeration order.
type Report struct {
	// Seed and TrialsPerCell echo the campaign parameters.
	Seed          uint64
	TrialsPerCell int
	// Trials holds every trial in the fixed enumeration order
	// (mechanism-major, then kind, then repetition).
	Trials []Trial
}

// Run executes the campaign and returns the deterministic report. The
// returned error is non-nil only for setup failures (a victim that does
// not compile) or context cancellation; per-trial failures — including
// panics recovered by the worker pool — are Degraded trials in the
// report, never process faults.
func (c Campaign) Run(ctx context.Context) (*Report, error) {
	trials := c.Trials
	if trials <= 0 {
		trials = 6
	}
	inj, err := NewInjector(c.Mechs)
	if err != nil {
		return nil, err
	}
	inj.Tier = c.Tier
	inj.wrap = c.wrap

	type spec struct {
		def  mechDef
		kind Kind
		rep  int
	}
	var specs []spec
	add := func(kinds []Kind) {
		for _, d := range inj.defs {
			for _, k := range kinds {
				if !d.eligible(k) {
					continue
				}
				for t := 0; t < trials; t++ {
					specs = append(specs, spec{def: d, kind: k, rep: t})
				}
			}
		}
	}
	// The legacy kinds enumerate first, in their original order, so the
	// per-trial seeds MixSeed(Seed, index) of the pre-existing matrix are
	// unchanged by kind additions; newer kinds append after the block.
	add(legacyKinds())
	add([]Kind{KindSpuriousElide})
	add(raceKinds())

	rep := &Report{Seed: c.Seed, TrialsPerCell: trials, Trials: make([]Trial, len(specs))}
	cfg := TrialConfig(c.SMs)
	errs := runner.ForEach(ctx, len(specs), c.Workers, func(i int) error {
		sp := specs[i]
		tr := inj.runTrial(ctx, sp.def, sp.kind, MixSeed(c.Seed, uint64(i)), cfg)
		tr.Index, tr.Rep = i, sp.rep
		rep.Trials[i] = tr
		return nil
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		// A panic that escaped the trial's own containment (recovered by
		// the pool) or a cancelled context: the slot becomes a Degraded
		// trial so the report stays complete and ordered.
		sp := specs[i]
		rep.Trials[i] = Trial{
			Index: i, Mech: sp.def.name, Kind: sp.kind, Rep: sp.rep,
			Seed: MixSeed(c.Seed, uint64(i)), Outcome: OutcomeDegraded,
			Detail: err.Error(), Err: err,
		}
	}
	return rep, ctx.Err()
}

// withDetail appends an observation to a trial's injection description.
func withDetail(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "; " + extra
}

// runTrial executes one injection on a fresh device and classifies it.
// The caller fills in Index and Rep; everything else is derived from
// (def, kind, seed, cfg) alone.
func (inj *Injector) runTrial(ctx context.Context, def mechDef, kind Kind,
	seed uint64, cfg sim.Config) (tr Trial) {
	progs := inj.progs[def.name]
	tr = Trial{Mech: def.name, Kind: kind, Seed: seed}
	degraded := func(detail string, cause error) Trial {
		if cause == nil {
			cause = errors.New(detail)
		}
		tr.Outcome, tr.Detail, tr.Err = OutcomeDegraded, withDetail(tr.Detail, detail), cause
		return tr
	}
	r := newRNG(seed)
	mech := def.make()
	if inj.wrap != nil {
		mech = inj.wrap(def.name, mech)
	}
	var ocu *ocuMisdecode
	if kind == KindOCUMisdecode {
		ocu = &ocuMisdecode{Mechanism: mech, seed: splitmix64(seed ^ 0xC0DE)}
		mech = ocu
	}
	if kind.IsRace() {
		// The race kinds' detector is the dynamic race oracle, armed
		// for this trial only (it shadows every shared lane access and
		// would perturb nothing but throughput elsewhere).
		cfg.RaceOracle = true
	}
	dev, err := sim.NewDevice(cfg, mech)
	if err != nil {
		return degraded("device: "+err.Error(), err)
	}

	if kind == KindAllocExhaust {
		return inj.exhaustTrial(ctx, tr, dev, r, progs)
	}
	if kind.IsRace() {
		return inj.raceTrial(ctx, tr, dev, r, progs, kind)
	}

	inPtr, err := dev.Malloc(victimBufBytes)
	if err != nil {
		return degraded("malloc in: "+err.Error(), err)
	}
	outPtr, err := dev.Malloc(victimBufBytes)
	if err != nil {
		return degraded("malloc out: "+err.Error(), err)
	}
	dev.WriteGlobal(inPtr, streamInput())

	// The oob victim takes only the output buffer; the stream victim
	// takes both. Pointer-corruption kinds perturb the copy passed as
	// the kernel parameter, never the pristine pointer used afterwards
	// to inspect memory.
	prog := progs.stream
	outParam := outPtr
	oobVictim := false
	switch kind {
	case KindControl:
	case KindAllocMisround:
		nv, detail := misroundTag(outPtr, r)
		if detail == "" {
			tr.Outcome = OutcomeTolerated
			tr.Detail = "buffer already in the smallest size class; no misround expressible"
			return tr
		}
		outParam, tr.Detail = nv, detail
	case KindExtentFlip:
		outParam, tr.Detail = corruptExtentBit(outPtr, r)
	case KindUMFlip:
		outParam, tr.Detail = corruptUMBit(outPtr, r)
	case KindHintDrop:
		q, detail := dropHint(progs.oob, r)
		if q == nil {
			tr.Outcome = OutcomeTolerated
			tr.Detail = "victim carries no hinted instructions"
			return tr
		}
		prog, tr.Detail, oobVictim = q, detail, true
	case KindHintSpurious:
		q, detail := spuriousHint(progs.stream, r)
		if q == nil {
			tr.Outcome = OutcomeTolerated
			tr.Detail = "victim carries no unhinted integer instructions"
			return tr
		}
		prog, tr.Detail = q, detail
	case KindOCUMisdecode:
		prog, oobVictim = progs.oob, true
	case KindFreeSkipNullify:
		if err := dev.Free(outPtr); err != nil {
			return degraded("free: "+err.Error(), err)
		}
		tr.Detail = "buffer freed, extent nullification skipped, stale tagged pointer launched"
	case KindSpuriousElide:
		q, detail := spuriousElide(progs.oob, r)
		if q == nil {
			tr.Outcome = OutcomeTolerated
			tr.Detail = "victim carries no checkable memory instructions"
			return tr
		}
		prog, tr.Detail, oobVictim = q, detail, true
	}

	params := []uint64{inPtr, outParam}
	if oobVictim {
		params = []uint64{outParam}
	}
	st, lerr := inj.launchTier(ctx, dev, prog, 1, victimThreads, params)
	if ocu != nil {
		tr.InjectCycle = ocu.injectCycle
		tr.Detail = fmt.Sprintf("OCU misdecoded %d of %d pointer checks", ocu.skips, ocu.calls)
	}
	if lerr != nil {
		return degraded("launch: "+lerr.Error(), lerr)
	}
	tr.Cycles = st.Cycles
	tr.ECChecked, tr.ECElided, tr.Faults = st.ECChecked, st.ECElided, len(st.Faults)
	if len(st.Faults) > 0 {
		tr.HasFault, tr.FaultCycle = true, st.Faults[0].Cycle
		obs := "fault: " + st.Faults[0].String()
		switch kind {
		case KindControl, KindHintSpurious:
			// No violation was injected that the mechanism should
			// report; a fault here is a false alarm.
			tr.Outcome = OutcomeFalsePositive
		case KindSpuriousElide:
			// The planted E landed on an in-bounds access: skipping a
			// check that would pass is architecturally benign, and the
			// victim's designed out-of-bounds store was still caught.
			tr.Outcome = OutcomeTolerated
		default:
			tr.Outcome = OutcomeDetected
		}
		tr.Detail = withDetail(tr.Detail, obs)
		return tr
	}
	if st.Halted {
		return degraded("halted without a recorded fault", nil)
	}

	// Clean completion: classify by the resulting memory state.
	switch kind {
	case KindControl:
		if !streamOutputOK(dev.ReadGlobal(outPtr, victimBufBytes)) {
			return degraded("control run produced wrong output", nil)
		}
		tr.Outcome = OutcomeClean
	case KindFreeSkipNullify:
		// Completing at all means the use-after-free executed unflagged.
		tr.Outcome = OutcomeMissed
		tr.Detail = withDetail(tr.Detail, "use-after-free executed unflagged")
	case KindHintDrop, KindOCUMisdecode, KindSpuriousElide:
		base := dev.Mech.Canonical(outPtr)
		if dev.Global.Read(base+victimBufBytes, 4) == oobMarker {
			tr.Outcome = OutcomeMissed
			tr.Detail = withDetail(tr.Detail, "out-of-bounds store landed one word past the buffer")
		} else {
			tr.Outcome = OutcomeTolerated
			tr.Detail = withDetail(tr.Detail, "out-of-bounds store still suppressed")
		}
	default: // alloc-misround, extent-flip, um-flip, hint-spurious
		if streamOutputOK(dev.ReadGlobal(outPtr, victimBufBytes)) {
			tr.Outcome = OutcomeTolerated
			tr.Detail = withDetail(tr.Detail, "completed with intact output")
		} else {
			tr.Outcome = OutcomeMissed
			tr.Detail = withDetail(tr.Detail, "silent corruption: output diverges from the clean run")
		}
	}
	return tr
}

// exhaustTrial drives the allocator into exhaustion and requires
// graceful degradation: a plain error (no panic) and a device that
// still runs a clean kernel afterwards.
func (inj *Injector) exhaustTrial(ctx context.Context, tr Trial, dev *sim.Device, r *rng, progs compiledVictims) Trial {
	degraded := func(detail string, cause error) Trial {
		if cause == nil {
			cause = errors.New(detail)
		}
		tr.Outcome, tr.Detail, tr.Err = OutcomeDegraded, withDetail(tr.Detail, detail), cause
		return tr
	}
	// Far beyond the 8 GiB global arena, with per-trial variety in the
	// overshoot magnitude.
	size := uint64(1) << (40 + uint(r.intn(5)))
	_, err := dev.Malloc(size)
	if err == nil {
		tr.Outcome = OutcomeMissed
		tr.Detail = fmt.Sprintf("%d-byte allocation beyond the arena unexpectedly succeeded", size)
		return tr
	}
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		return degraded("allocator panicked on exhaustion: "+pe.Error(), pe)
	}
	tr.Detail = fmt.Sprintf("%d B request refused: %v", size, err)

	// Graceful degradation: the same device must still work.
	inPtr, err := dev.Malloc(victimBufBytes)
	if err != nil {
		return degraded("device wedged after exhaustion: "+err.Error(), err)
	}
	outPtr, err := dev.Malloc(victimBufBytes)
	if err != nil {
		return degraded("device wedged after exhaustion: "+err.Error(), err)
	}
	dev.WriteGlobal(inPtr, streamInput())
	st, lerr := inj.launchTier(ctx, dev, progs.stream, 1, victimThreads, []uint64{inPtr, outPtr})
	if lerr != nil {
		return degraded("post-exhaustion launch failed: "+lerr.Error(), lerr)
	}
	if st.Halted || len(st.Faults) > 0 || !streamOutputOK(dev.ReadGlobal(outPtr, victimBufBytes)) {
		return degraded("post-exhaustion run unhealthy", nil)
	}
	tr.Cycles = st.Cycles
	tr.ECChecked, tr.ECElided = st.ECChecked, st.ECElided
	tr.Outcome = OutcomeDetected
	tr.Detail = withDetail(tr.Detail, "device healthy afterwards")
	return tr
}

// raceContract is the race victim's launch geometry for the static
// analyzer: one block of victimThreads, no element-count contract (the
// victim takes no parameters).
func raceContract() bounds.Contract {
	return bounds.Contract{CountParam: -1, BlockDimX: victimThreads, GridDimX: 1}
}

// staticRaceRecords runs the static race analyzer over a (mutated)
// victim and returns its findings in the oracle's record form and
// deterministic order. Any non-race diagnostic — an inexpressible
// address, a divergence flag, or a blown fixpoint budget — means the
// analyzer could not pin the planted fault to exact instructions and is
// reported as an error.
func staticRaceRecords(p *isa.Program) ([]sim.RaceRecord, error) {
	res := race.Analyze(p, raceContract(), nil)
	if !res.Converged {
		return nil, errors.New("static race analysis did not converge")
	}
	var recs []sim.RaceRecord
	for _, d := range res.Diags {
		if d.Kind != race.KindRace {
			return nil, fmt.Errorf("static analysis lost precision: %s", d.Msg)
		}
		recs = append(recs, sim.RaceRecord{Kind: d.Race, PC: int32(d.PC), OtherPC: int32(d.OtherPC)})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].PC != recs[j].PC {
			return recs[i].PC < recs[j].PC
		}
		if recs[i].OtherPC != recs[j].OtherPC {
			return recs[i].OtherPC < recs[j].OtherPC
		}
		return recs[i].Kind < recs[j].Kind
	})
	return recs, nil
}

// formatRaceRecords renders a race record set compactly for trial
// details: "read-write@(12,17) write-write@(9,9)".
func formatRaceRecords(recs []sim.RaceRecord) string {
	if len(recs) == 0 {
		return "none"
	}
	parts := make([]string, len(recs))
	for i, rc := range recs {
		parts[i] = fmt.Sprintf("%s@(%d,%d)", rc.Kind, rc.PC, rc.OtherPC)
	}
	return strings.Join(parts, " ")
}

// raceRecordsEqual reports whether two sorted record sets match
// exactly.
func raceRecordsEqual(a, b []sim.RaceRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// raceTrial plants one synchronization fault in the shared-memory race
// victim and requires the static race analyzer and the dynamic race
// oracle to agree on it exactly: the same conflict classes at the same
// instruction pairs, and at least one of them. A trial is Detected only
// on exact agreement; a finding set that diverges between the two — or
// a mutation neither notices — is a Missed defect in the detector pair.
func (inj *Injector) raceTrial(ctx context.Context, tr Trial, dev *sim.Device, r *rng,
	progs compiledVictims, kind Kind) Trial {
	degraded := func(detail string, cause error) Trial {
		if cause == nil {
			cause = errors.New(detail)
		}
		tr.Outcome, tr.Detail, tr.Err = OutcomeDegraded, withDetail(tr.Detail, detail), cause
		return tr
	}
	var q *isa.Program
	var detail string
	switch kind {
	case KindRaceDropBar:
		q, detail = dropBarrier(progs.race, r)
	case KindRaceStridePerturb:
		q, detail = perturbStride(progs.race, r)
	case KindRaceDemoteAtomic:
		q, detail = demoteAtomic(progs.race, r)
	}
	if q == nil {
		tr.Outcome = OutcomeTolerated
		tr.Detail = "victim carries no applicable injection site"
		return tr
	}
	tr.Detail = detail

	want, err := staticRaceRecords(q)
	if err != nil {
		return degraded("static analyzer: "+err.Error(), err)
	}
	if len(want) == 0 {
		tr.Outcome = OutcomeMissed
		tr.Detail = withDetail(tr.Detail, "static analyzer proved the mutated victim race-free")
		return tr
	}

	st, lerr := inj.launchTier(ctx, dev, q, 1, victimThreads, nil)
	if lerr != nil {
		return degraded("launch: "+lerr.Error(), lerr)
	}
	tr.Cycles = st.Cycles
	tr.ECChecked, tr.ECElided, tr.Faults = st.ECChecked, st.ECElided, len(st.Faults)
	if len(st.Faults) > 0 {
		// The victim stays inside its shared buffer under every
		// mutation; no bounds mechanism has anything to report.
		tr.HasFault, tr.FaultCycle = true, st.Faults[0].Cycle
		tr.Outcome = OutcomeFalsePositive
		tr.Detail = withDetail(tr.Detail, "fault: "+st.Faults[0].String())
		return tr
	}
	if st.Halted {
		return degraded("halted without a recorded fault", nil)
	}
	if !raceRecordsEqual(want, st.Races) {
		tr.Outcome = OutcomeMissed
		tr.Detail = withDetail(tr.Detail, fmt.Sprintf(
			"static/dynamic disagree: static %s, oracle %s",
			formatRaceRecords(want), formatRaceRecords(st.Races)))
		return tr
	}
	tr.Outcome = OutcomeDetected
	tr.Detail = withDetail(tr.Detail, "static pass and race oracle agree: "+formatRaceRecords(want))
	return tr
}

// Undetected returns every injection trial the mechanism failed to
// surface, in campaign order: the silent misses and the architecturally
// tolerated ones (controls, which inject nothing, are excluded).
func (r *Report) Undetected() []Trial {
	var out []Trial
	for _, t := range r.Trials {
		if t.Kind == KindControl {
			continue
		}
		if t.Outcome == OutcomeMissed || t.Outcome == OutcomeTolerated {
			out = append(out, t)
		}
	}
	return out
}

// Degraded counts trials where the simulator itself failed.
func (r *Report) Degraded() int {
	n := 0
	for _, t := range r.Trials {
		if t.Outcome == OutcomeDegraded {
			n++
		}
	}
	return n
}

// FalsePositives counts faults raised on trials that injected no
// reportable violation.
func (r *Report) FalsePositives() int {
	n := 0
	for _, t := range r.Trials {
		if t.Outcome == OutcomeFalsePositive {
			n++
		}
	}
	return n
}

// CellOutcomes tallies one matrix cell: trials with each outcome for
// (mech, kind).
func (r *Report) CellOutcomes(mech string, kind Kind) map[Outcome]int {
	out := make(map[Outcome]int)
	for _, t := range r.Trials {
		if t.Mech == mech && t.Kind == kind {
			out[t.Outcome]++
		}
	}
	return out
}

// Render formats the campaign report: the detection matrix, the
// enumeration of every undetected injection, and (verbose) a per-trial
// log. The output contains no wall-clock data and is byte-identical
// for a given seed regardless of worker count.
func (r *Report) Render(verbose bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign  seed=%#x  trials/cell=%d  total=%d\n\n",
		r.Seed, r.TrialsPerCell, len(r.Trials))

	type agg struct {
		n, det, miss, tol, fp, clean, degr int
		latSum                             uint64
		latN                               int
	}
	type cellKey struct {
		mech string
		kind Kind
	}
	var order []cellKey
	cells := make(map[cellKey]*agg)
	for i := range r.Trials {
		t := &r.Trials[i]
		k := cellKey{t.Mech, t.Kind}
		a := cells[k]
		if a == nil {
			a = &agg{}
			cells[k] = a
			order = append(order, k)
		}
		a.n++
		switch t.Outcome {
		case OutcomeDetected:
			a.det++
			if t.HasFault {
				a.latSum += t.Latency()
				a.latN++
			}
		case OutcomeMissed:
			a.miss++
		case OutcomeTolerated:
			a.tol++
		case OutcomeFalsePositive:
			a.fp++
		case OutcomeClean:
			a.clean++
		case OutcomeDegraded:
			a.degr++
		}
	}
	fmt.Fprintf(&b, "%-12s %-18s %-11s %4s %4s %5s %4s %3s %6s %5s %8s\n",
		"mechanism", "kind", "stage", "n", "det", "miss", "tol", "fp", "clean", "degr", "avg-lat")
	for _, k := range order {
		a := cells[k]
		lat := "-"
		if a.latN > 0 {
			lat = fmt.Sprintf("%d", a.latSum/uint64(a.latN))
		}
		fmt.Fprintf(&b, "%-12s %-18s %-11s %4d %4d %5d %4d %3d %6d %5d %8s\n",
			k.mech, k.kind, k.kind.Stage(), a.n, a.det, a.miss, a.tol, a.fp, a.clean, a.degr, lat)
	}

	und := r.Undetected()
	fmt.Fprintf(&b, "\nundetected injections: %d\n", len(und))
	for _, t := range und {
		fmt.Fprintf(&b, "  [%04d] %-12s %-18s seed=%#016x %-9s %s\n",
			t.Index, t.Mech, t.Kind, t.Seed, t.Outcome, t.Detail)
	}
	if fp := r.FalsePositives(); fp > 0 {
		fmt.Fprintf(&b, "false positives: %d\n", fp)
	}
	if d := r.Degraded(); d > 0 {
		fmt.Fprintf(&b, "DEGRADED trials (engine failures): %d\n", d)
	}

	if verbose {
		fmt.Fprintf(&b, "\nper-trial log:\n")
		for _, t := range r.Trials {
			lat := ""
			if t.HasFault {
				lat = fmt.Sprintf(" latency=%d", t.Latency())
			}
			fmt.Fprintf(&b, "  [%04d] %-12s %-18s rep=%d seed=%#016x %-14s%s %s\n",
				t.Index, t.Mech, t.Kind, t.Rep, t.Seed, t.Outcome, lat, t.Detail)
		}
	}
	return b.String()
}
