package fleet

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/serve"
)

// soakBundleWorkloads is the bench trio the reload soak serves from
// signed bundles. Version 1 ships backprop un-elided; version 2 elides
// it — so the two versions share byte-identical needle/nn entries (the
// warm-cache case) while backprop's code changes between them (the
// material the stale-audit tamper needs).
var soakBundleWorkloads = []string{"backprop", "needle", "nn"}

// soakKey derives a deterministic ed25519 signing key from the soak
// seed: the whole reload campaign, signatures included, is a pure
// function of the config.
func soakKey(seed, salt uint64) ed25519.PrivateKey {
	var raw [ed25519.SeedSize]byte
	for i := 0; i < ed25519.SeedSize/8; i++ {
		binary.BigEndian.PutUint64(raw[i*8:], chaos.MixSeed(seed, salt+uint64(i)))
	}
	return ed25519.NewKeyFromSeed(raw[:])
}

// ReloadRecord is one reload attempt on the soak's virtual timeline.
type ReloadRecord struct {
	At time.Duration `json:"at_ns"`
	// Kind is "genuine" or one of the chaos bundle-tamper kinds.
	Kind string `json:"kind"`
	// Digest is the offered bundle's stored digest (for a tampered
	// bundle this is whatever the attacker claims it is).
	Digest string `json:"digest"`
	// Status is "ok" or "rejected"; Reason carries the typed rejection
	// reason and Error its full text.
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
	// Serving is the fleet's serving digest after the event: unchanged
	// by any rejection.
	Serving string `json:"serving"`
}

// tamperedReload is a pre-verified tampered bundle: the offered digest
// and the typed rejection Verify produced for it.
type tamperedReload struct {
	digest string
	reason bundle.RejectReason
	err    error
}

// soakBundles is the prepared artifact state for one reload soak: two
// sealed bundle versions, their verified tables, one executed bench
// outcome per (workload, version), and one pre-verified tampered
// bundle per tamper kind. Verification runs here — off the replay's
// serving path, exactly as Coordinator.Reload verifies off-path — so
// the virtual timeline only ever swaps an already-verified table.
type soakBundles struct {
	digests  []string
	benchOut map[string][]serve.Outcome // workload -> outcome per version
	tampered map[string]tamperedReload
}

// prepareSoakBundles builds, seals, verifies, and pre-executes the
// soak's bundle state. Any failure here is a soak setup error: the
// honest pipeline must produce verifiable bundles, and every tampered
// bundle must already be rejected with a typed reason before the
// replay begins.
func prepareSoakBundles(ctx context.Context, cfg SoakConfig, exec *serve.Executor) (*soakBundles, error) {
	priv := soakKey(cfg.Seed, 0xB0B5)
	wrong := soakKey(cfg.Seed, 0xEE71)
	pub := priv.Public().(ed25519.PublicKey)

	specs := func(elideBackprop bool) []bundle.BuildSpec {
		return []bundle.BuildSpec{
			{Workload: "backprop", Elide: elideBackprop},
			// needle ships with a specialization record in both versions:
			// the material the stale-spec tamper grafts onto backprop.
			{Workload: "needle", Elide: true, Specialize: true},
			{Workload: "nn", Elide: true},
		}
	}
	sb := &soakBundles{
		benchOut: make(map[string][]serve.Outcome),
		tampered: make(map[string]tamperedReload),
	}
	versions := make([]*bundle.Bundle, 2)
	for i, elide := range []bool{false, true} {
		b, err := bundle.Build(specs(elide), cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("building bundle v%d: %w", i+1, err)
		}
		if err := b.Seal(priv); err != nil {
			return nil, fmt.Errorf("sealing bundle v%d: %w", i+1, err)
		}
		v, err := bundle.Verify(b, pub)
		if err != nil {
			return nil, fmt.Errorf("honest bundle v%d rejected: %w", i+1, err)
		}
		versions[i] = b
		sb.digests = append(sb.digests, v.Digest())
		// One bench execution per (workload, version): executeBench is a
		// pure function of the serving table, so the replay derives every
		// attempt from these outcomes via serve.BenchAttempt.
		if err := exec.SetBundle(v); err != nil {
			return nil, fmt.Errorf("bundle v%d bring-up: %w", i+1, err)
		}
		for _, w := range soakBundleWorkloads {
			out := exec.Execute(ctx, serve.Request{Workload: w, Mechanism: "lmi"}, 0)
			if out.BundleDigest != v.Digest() {
				return nil, fmt.Errorf("bench cell %s served digest %q under bundle %s", w, out.BundleDigest, v.Digest())
			}
			sb.benchOut[w] = append(sb.benchOut[w], out)
		}
	}

	for _, kind := range bundle.TamperKinds() {
		tb, err := bundle.Tamper(kind, versions[1], versions[0], priv, wrong)
		if err != nil {
			return nil, fmt.Errorf("tampering %s: %w", kind, err)
		}
		_, verr := bundle.Verify(tb, pub)
		if verr == nil {
			return nil, fmt.Errorf("tampered bundle (%s) passed verification", kind)
		}
		sb.tampered[kind] = tamperedReload{
			digest: tb.Digest,
			reason: bundle.RejectionReason(verr),
			err:    verr,
		}
	}
	return sb, nil
}

// genuineReloadTimes scripts the two genuine reloads: one mid-first-
// burst (a reload landing while the queues are at their shed
// thresholds; a plan always has a burst) and one at two thirds of the
// horizon.
func genuineReloadTimes(plan []chaos.ShardFault, horizon time.Duration) []time.Duration {
	return []time.Duration{plan[0].At + plan[0].Dur/2, 2 * horizon / 3}
}

// shortDigest truncates a digest for the text report (the JSON
// artifacts carry it in full).
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
