package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"runtime"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/lint"
	"lmi/internal/peval"
	"lmi/internal/race"
	"lmi/internal/workloads"
)

// releaseSetup times loading the release inputs (every workload's IR
// kernel and launch contracts) setupReps times on fresh specs, in CPU
// time, then
// loads the shared specs bundle.Build reads.
func releaseSetup(tr *tracer) (time.Duration, error) {
	const setupReps = 41
	load := func(specs []*workloads.Spec, parent uint64) error {
		for i, s := range specs {
			var err error
			tr.do("workloads.kernel", s.Name, parent, uint64(i+1), func(uint64) {
				_, err = s.Kernel()
				_, _ = s.Contract(), s.ConcreteContract()
			})
			if err != nil {
				return fmt.Errorf("load %s: %w", s.Name, err)
			}
		}
		return nil
	}
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		specs := freshSpecs()
		// Start every repetition from a collected heap, so no repetition
		// pays for a collection the previous ones started.
		runtime.GC()
		var err error
		ds = append(ds, cpuTimed(func() {
			tr.do("release.setup", "", 0, 0, func(id uint64) { err = load(specs, id) })
		}))
		if err != nil {
			return 0, err
		}
	}
	return median(ds), load(workloads.All(), 0)
}

// release is one pass of the pipeline: build, seal and encode the
// bundle (what a kernel author ships), then decode and verify it (what
// every lmi-serve startup and hot reload pays).
type release struct {
	built    *bundle.Bundle
	encoded  []byte
	verified *bundle.Verified
	build    time.Duration
	verify   time.Duration
}

func releaseOnce(tr *tracer, jobs int, parent uint64) (*release, error) {
	rel := &release{}
	var err error
	rel.build = cpuTimed(func() {
		tr.do("bundle.build", "", parent, 0, func(uint64) { rel.built, err = bundle.Build(releaseSpecs(), jobs) })
		if err != nil {
			return
		}
		tr.do("bundle.seal", "", parent, 0, func(uint64) { err = rel.built.Seal(fixtureKey) })
		if err != nil {
			return
		}
		var buf bytes.Buffer
		tr.do("bundle.encode", "", parent, 0, func(uint64) { err = rel.built.Encode(&buf) })
		rel.encoded = buf.Bytes()
	})
	if err != nil {
		return nil, err
	}
	rel.verify = cpuTimed(func() {
		var b *bundle.Bundle
		tr.do("bundle.decode", "", parent, 0, func(uint64) { b, err = bundle.Decode(bytes.NewReader(rel.encoded)) })
		if err != nil {
			return
		}
		tr.do("bundle.verify", "", parent, 0, func(uint64) { rel.verified, err = bundle.Verify(b, fixtureKey.Public().(ed25519.PublicKey)) })
	})
	return rel, err
}

// checkRelease checks one pass: the sealed digest equals the pinned
// digest at the fixture key, and Verify accepts the decoded bundle with
// every entry.
func checkRelease(r *run, ref *reference, rel *release) {
	if rel.built.Digest != ref.BundleDigest {
		r.mismatch("release: sealed digest %s, pinned %s", rel.built.Digest, ref.BundleDigest)
	}
	if got := rel.verified.Digest(); got != ref.BundleDigest {
		r.mismatch("release: verified digest %s, pinned %s", got, ref.BundleDigest)
	}
	if n := len(rel.verified.Entries()); n != len(workloads.All()) {
		r.mismatch("release: verified %d entries, want %d", n, len(workloads.All()))
	}
}

// checkTampers drives every tamper kind, and an insider resign, through
// Verify and checks each is rejected with its pinned reason, so a
// Verify that skipped a check cannot pass as faster. The stale-audit
// replay comes from an older
// build of nn without elision; the stale-spec graft needs an
// unspecialized target, so it runs on the bundle with nn rebuilt
// elide-only.
func checkTampers(r *run, genuine *bundle.Bundle, jobs int) error {
	older, err := bundle.Build([]bundle.BuildSpec{{Workload: "nn"}}, jobs)
	if err != nil {
		return err
	}
	if err := older.Seal(fixtureKey); err != nil {
		return err
	}
	plain, err := bundle.Build([]bundle.BuildSpec{{Workload: "nn", Elide: true}}, jobs)
	if err != nil {
		return err
	}
	mixed := genuine.Clone()
	for i := range mixed.Entries {
		if mixed.Entries[i].Name == "nn" {
			mixed.Entries[i] = plain.Entries[0]
		}
	}
	if err := mixed.Seal(fixtureKey); err != nil {
		return err
	}
	for _, kind := range bundle.TamperKinds() {
		cur := genuine
		if kind == bundle.TamperStaleSpec {
			cur = mixed
		}
		tb, err := bundle.Tamper(kind, cur, older, fixtureKey, attackerKey)
		if err != nil {
			return err
		}
		checkRejected(r, tb, kind, bundle.ExpectedTamperRejection(kind))
	}

	// Every kind above is caught before Verify re-runs the static passes.
	// The insider resign is caught only by the re-run: one residual
	// instruction mutated, every certificate rebound to the new code
	// digest, resealed with the genuine key.
	insider := genuine.Clone()
	e := &insider.Entries[0]
	res, err := e.DecodeSpecProgram()
	if err != nil {
		return err
	}
	if e.SpecCode, err = bundle.EncodeWords(chaos.PlantSpecMutationAt(res, len(res.Instrs)/2)); err != nil {
		return err
	}
	cd, err := bundle.CodeDigest(e)
	if err != nil {
		return err
	}
	e.Lint.CodeDigest, e.Audit.CodeDigest, e.Race.CodeDigest, e.Spec.CodeDigest = cd, cd, cd, cd
	if err := insider.Seal(fixtureKey); err != nil {
		return err
	}
	checkRejected(r, insider, "insider-resign", bundle.ReasonSpecViolation)
	return nil
}

// checkRejected requires Verify to refuse b with the given reason.
func checkRejected(r *run, b *bundle.Bundle, kind string, want bundle.RejectReason) {
	r.Attempted++
	v, err := bundle.Verify(b, fixtureKey.Public().(ed25519.PublicKey))
	if got := bundle.RejectionReason(err); v != nil || err == nil || got != want {
		r.mismatch("release: tamper %s: Verify returned %v (reason %q), want rejection %q", kind, err, got, want)
	}
}

// runRelease repeats the release pipeline until the budget is spent (at
// least once); heavy is a build, light a verify.
func runRelease(o opts, ref *reference, tr *tracer) (*run, error) {
	if tr != nil {
		return traceRelease(o, ref, tr)
	}
	r := &run{}
	setup, err := releaseSetup(nil)
	if err != nil {
		return nil, err
	}
	entries := len(workloads.All())
	// One untimed pass first: the first build pays one-time costs
	// (heap growth, lazily built tables) that no later release repeats.
	r.Attempted += 2 * entries
	warm, err := releaseOnce(nil, o.nproc, 0)
	if err != nil {
		return nil, err
	}
	checkRelease(r, ref, warm)
	var builds, verifies []time.Duration
	var last *release
	for start := time.Now(); len(builds) == 0 || time.Since(start) < time.Duration(o.seconds*float64(time.Second)); {
		r.Attempted += 2 * entries
		rel, err := releaseOnce(nil, o.nproc, 0)
		if err != nil {
			r.Failed += 2 * entries
			r.mismatch("release: %v", err)
			break
		}
		checkRelease(r, ref, rel)
		builds, verifies = append(builds, rel.build), append(verifies, rel.verify)
		last = rel
	}
	if last != nil {
		if err := checkTampers(r, last.built, o.nproc); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", "s", setup.Seconds())
	r.set("peak_rss_mb", "MB", peakRSSMB())
	r.set("heavy_cpu_ms", "ms", float64(median(builds))/float64(time.Millisecond))
	r.set("light_cpu_ms", "ms", float64(median(verifies))/float64(time.Millisecond))
	return r, nil
}

// traceRelease is the traced variant: one untraced and one traced
// pipeline pass (their difference is the tracing overhead), then the
// passes Build and Verify run internally, called one by one on the same
// inputs, each in its own span: compile and specialize on the build
// side, and the four re-run audits on the decoded programs, which is
// the work Verify repeats. Verify's remaining time (structure, digests,
// signature, decode of code words) is bundle.verify_other_s.
func traceRelease(o opts, ref *reference, tr *tracer) (*run, error) {
	r := &run{}
	if _, err := releaseSetup(tr); err != nil {
		return nil, err
	}
	entries := len(workloads.All())
	plain, err := releaseOnce(nil, o.nproc, 0)
	if err != nil {
		return nil, err
	}
	var rel *release
	traced := cpuTimed(func() {
		tr.do("release.pass", "", 0, 0, func(id uint64) { rel, err = releaseOnce(tr, o.nproc, id) })
	})
	if err != nil {
		return nil, err
	}
	r.Attempted += 4 * entries
	checkRelease(r, ref, plain)
	checkRelease(r, ref, rel)
	if err := checkTampers(r, rel.built, o.nproc); err != nil {
		return nil, err
	}

	var instrs, transforms, diags int
	for i, s := range workloads.All() {
		req := uint64(i + 1)
		f, err := s.Kernel()
		if err != nil {
			return nil, err
		}
		var prog *isa.Program
		tr.do("compiler.elide", s.Name, 0, req, func(uint64) { prog, _, _, err = compiler.CompileElidedWithSourceMap(f, s.Contract()) })
		if err != nil {
			return nil, err
		}
		instrs += len(prog.Instrs)
		var res *peval.Result
		tr.do("peval.specialize", s.Name, 0, req, func(uint64) {
			res, err = peval.Specialize(f, s.Contract(), s.ConcreteContract(), peval.Options{})
		})
		if err != nil {
			return nil, err
		}
		transforms += len(res.Cert.Transforms)
	}
	// Verify's breakdown: Verify on the decoded bundle, then the four
	// passes it re-runs called directly on the same decoded programs,
	// interleaved verifyReps times so host drift hits both alike; each
	// figure is the median over the repetitions.
	const verifyReps = 3
	passNames := []string{"lint.check", "lint.elide_audit", "race.analyze", "lint.spec_audit"}
	perPass := map[string][]time.Duration{}
	var others []time.Duration
	for rep := 0; rep < verifyReps; rep++ {
		decoded, err := bundle.Decode(bytes.NewReader(rel.encoded))
		if err != nil {
			return nil, err
		}
		var v *bundle.Verified
		verify := tr.do("bundle.verify", "breakdown", 0, 0, func(uint64) { v, err = bundle.Verify(decoded, fixtureKey.Public().(ed25519.PublicKey)) })
		if err != nil {
			return nil, err
		}
		sums := map[string]time.Duration{}
		for i, ve := range v.Entries() {
			req := uint64(i + 1)
			e := findBundleEntry(decoded, ve.Name, ve.Mechanism)
			if e == nil {
				return nil, fmt.Errorf("release: entry %s/%s missing from the decoded bundle", ve.Name, ve.Mechanism)
			}
			n := 0
			sums["lint.check"] += tr.do("lint.check", ve.Name, 0, req, func(uint64) { n += len(lint.CheckWithSource(ve.Prog, compiler.ModeLMI, e.SourceMap)) })
			sums["lint.elide_audit"] += tr.do("lint.elide_audit", ve.Name, 0, req, func(uint64) { n += len(lint.ElideAudit(ve.Prog, e.Contract)) })
			sums["race.analyze"] += tr.do("race.analyze", ve.Name, 0, req, func(uint64) { n += len(race.Analyze(ve.Prog, e.Contract, e.SourceMap).Diags) })
			sums["lint.spec_audit"] += tr.do("lint.spec_audit", ve.Name, 0, req, func(uint64) {
				n += len(lint.SpecializeAudit(ve.Prog, ve.SpecProg, e.SpecCertificate, *ve.SpecContract))
			})
			if rep == 0 {
				diags += n
			}
		}
		passes := time.Duration(0)
		for _, name := range passNames {
			perPass[name] = append(perPass[name], sums[name])
			passes += sums[name]
		}
		others = append(others, verify-passes)
	}
	if diags != 0 {
		r.mismatch("release: the static passes reported %d diagnostics on the shipped programs", diags)
	}
	for _, name := range passNames {
		r.set(name+"_s", "s", median(perPass[name]).Seconds())
	}
	r.set("bundle.verify_other_s", "s", median(others).Seconds())
	r.set("compiler.elide_s", "s", tr.total("compiler.elide", "").Seconds())
	r.set("peval.specialize_s", "s", tr.total("peval.specialize", "").Seconds())
	r.set("bundle.seal_s", "s", tr.total("bundle.seal", "").Seconds())
	r.set("bundle.decode_s", "s", tr.total("bundle.decode", "").Seconds())
	r.set("bundle.bytes", "bytes", float64(len(rel.encoded)))
	r.set("compiler.instrs_out", "count", float64(instrs))
	r.set("peval.transforms", "count", float64(transforms))
	r.set("lint.diags", "count", float64(diags))
	r.set("trace.overhead_share", "share", traced.Seconds()/(plain.build+plain.verify).Seconds()-1)
	return r, nil
}

func findBundleEntry(b *bundle.Bundle, name, mech string) *bundle.Entry {
	for i := range b.Entries {
		if b.Entries[i].Name == name && b.Entries[i].Mechanism == mech {
			return &b.Entries[i]
		}
	}
	return nil
}
