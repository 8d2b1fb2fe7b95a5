package chaos

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lmi/internal/core"
	"lmi/internal/sim"
)

// TestCampaignDeterministicAcrossWorkers: the acceptance property the
// whole engine is built around — the same seed renders byte-identical
// reports for 1 worker and 4 workers, verbose log included.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		rep, err := Campaign{Seed: 7, Trials: 2, Workers: workers}.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep.Render(true)
	}
	seq := run(1)
	par := run(4)
	if seq != par {
		t.Fatalf("report differs between -jobs 1 and -jobs 4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "chaos campaign") {
		t.Fatalf("unexpected report shape:\n%s", seq)
	}
}

// TestLMIExtentCorruptionDetection: every extent flip that lowers the
// claimed size class shrinks the bounds below what the stream victim
// touches, and LMI must detect 100% of those — at least the scripted
// Table III spatial rate. Upward flips widen the bounds, which
// in-pointer metadata architecturally cannot tell from a bigger buffer;
// they must complete with intact output and be enumerated as
// undetected.
func TestLMIExtentCorruptionDetection(t *testing.T) {
	rep, err := Campaign{Seed: 11, Trials: 10, Mechs: []string{"lmi"}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	down, up := 0, 0
	for _, tr := range rep.Trials {
		if tr.Kind != KindExtentFlip {
			continue
		}
		var bit, oldE, newE int
		if _, err := fmt.Sscanf(tr.Detail, "extent bit %d flipped (extent %d -> %d)", &bit, &oldE, &newE); err != nil {
			t.Fatalf("trial %d: unparsable extent-flip detail %q: %v", tr.Index, tr.Detail, err)
		}
		if newE < oldE {
			down++
			if tr.Outcome != OutcomeDetected {
				t.Errorf("trial %d (%s): extent-lowering flip not detected: %s -> %s",
					tr.Index, tr.Detail, tr.Outcome, tr.Detail)
			}
			if !tr.HasFault || tr.FaultCycle == 0 {
				t.Errorf("trial %d: detected flip has no fault cycle for latency", tr.Index)
			}
		} else {
			up++
			if tr.Outcome != OutcomeTolerated {
				t.Errorf("trial %d: extent-raising flip: outcome %s, want tolerated (%s)",
					tr.Index, tr.Outcome, tr.Detail)
			}
		}
	}
	if down == 0 || up == 0 {
		t.Fatalf("seed did not exercise both flip directions (down=%d up=%d); widen Trials", down, up)
	}
	// Every non-detected injection must appear in the enumeration.
	und := rep.Undetected()
	for _, tr := range rep.Trials {
		if tr.Kind == KindControl || (tr.Outcome != OutcomeMissed && tr.Outcome != OutcomeTolerated) {
			continue
		}
		found := false
		for _, u := range und {
			if u.Index == tr.Index {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("undetected trial %d missing from enumeration", tr.Index)
		}
	}
}

// TestCampaignMatrixExpectations pins the architecturally-determined
// cells of the matrix: the temporal-safety split between plain LMI and
// the liveness tracker, misround detection, graceful exhaustion, no
// false positives on controls, and zero engine degradation.
func TestCampaignMatrixExpectations(t *testing.T) {
	rep, err := Campaign{Seed: 3, Trials: 4}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Degraded(); d != 0 {
		t.Fatalf("campaign degraded %d trials:\n%s", d, rep.Render(true))
	}
	if fp := rep.FalsePositives(); fp != 0 {
		t.Fatalf("campaign raised %d false positives:\n%s", fp, rep.Render(true))
	}
	all := func(mech string, kind Kind, want Outcome) {
		t.Helper()
		got := rep.CellOutcomes(mech, kind)
		if got[want] != rep.TrialsPerCell || len(got) != 1 {
			t.Errorf("%s/%s: outcomes %v, want all %s", mech, kind, got, want)
		}
	}
	// Controls run clean everywhere.
	for _, m := range []string{"lmi", "lmi+track", "baggybounds", "gpushield"} {
		all(m, KindControl, OutcomeClean)
		all(m, KindAllocExhaust, OutcomeDetected)
	}
	// Skipped extent nullification: plain LMI architecturally misses the
	// stale pointer, the §XII-C tracker catches it; GPUShield has no
	// temporal safety at all.
	all("lmi", KindFreeSkipNullify, OutcomeMissed)
	all("lmi+track", KindFreeSkipNullify, OutcomeDetected)
	all("gpushield", KindFreeSkipNullify, OutcomeMissed)
	// A mis-rounded tag disowns part of the reservation the victim
	// touches; extent-bearing mechanisms must fault.
	all("lmi", KindAllocMisround, OutcomeDetected)
	all("lmi+track", KindAllocMisround, OutcomeDetected)
	// Retargeting an unmodifiable address bit keeps LMI's metadata
	// self-consistent (architectural miss, silent corruption), while
	// GPUShield's per-buffer bounds table catches the shifted address.
	all("lmi", KindUMFlip, OutcomeMissed)
	all("gpushield", KindUMFlip, OutcomeDetected)
	// Spurious hints must be absorbed by delayed termination.
	all("lmi", KindHintSpurious, OutcomeTolerated)
}

// TestCampaignLegacySeedStability re-derives the original campaign
// enumeration (mechanism-major over the legacy kinds) and requires every
// pre-existing trial to sit at exactly that index with exactly that
// seed: adding the spurious-elide kind must not move a single legacy
// trial, so the pre-existing detection matrix stays byte-identical.
func TestCampaignLegacySeedStability(t *testing.T) {
	const seed, trials = 42, 2
	rep, err := Campaign{Seed: seed, Trials: trials}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, d := range mechDefs() {
		for _, k := range legacyKinds() {
			if !d.eligible(k) {
				continue
			}
			for r := 0; r < trials; r++ {
				if i >= len(rep.Trials) {
					t.Fatalf("campaign ran %d trials; legacy enumeration needs more", len(rep.Trials))
				}
				tr := rep.Trials[i]
				if tr.Mech != d.name || tr.Kind != k || tr.Rep != r || tr.Seed != MixSeed(seed, uint64(i)) {
					t.Fatalf("trial %d: got (%s, %s, rep %d, seed %#x), want (%s, %s, rep %d, seed %#x)",
						i, tr.Mech, tr.Kind, tr.Rep, tr.Seed, d.name, k, r, MixSeed(seed, uint64(i)))
				}
				i++
			}
		}
	}
	if i == len(rep.Trials) {
		t.Fatal("campaign enumerated no spurious-elide trials after the legacy block")
	}
	// The appended blocks enumerate in their own fixed order after the
	// legacy matrix: first spurious-elide, then the race kinds. Each
	// must sit at exactly its re-derived index so the seeds of every
	// earlier block stay byte-identical across versions.
	for _, kinds := range [][]Kind{{KindSpuriousElide}, raceKinds()} {
		for _, d := range mechDefs() {
			for _, k := range kinds {
				if !d.eligible(k) {
					continue
				}
				for r := 0; r < trials; r++ {
					if i >= len(rep.Trials) {
						t.Fatalf("campaign ran %d trials; appended-block enumeration needs more", len(rep.Trials))
					}
					tr := rep.Trials[i]
					if tr.Mech != d.name || tr.Kind != k || tr.Rep != r || tr.Seed != MixSeed(seed, uint64(i)) {
						t.Fatalf("trial %d: got (%s, %s, rep %d, seed %#x), want (%s, %s, rep %d, seed %#x)",
							i, tr.Mech, tr.Kind, tr.Rep, tr.Seed, d.name, k, r, MixSeed(seed, uint64(i)))
					}
					i++
				}
			}
		}
	}
	if i != len(rep.Trials) {
		t.Fatalf("campaign ran %d trials beyond the enumerated blocks", len(rep.Trials)-i)
	}
}

// TestSpuriousElideOutcomes: a planted E bit landing on the oob victim's
// out-of-bounds store suppresses the only check that would catch it — a
// guaranteed silent miss with the marker landed past the buffer — while
// landing on an in-bounds access is benign and the designed violation is
// still caught. Both site classes must appear across the repetitions,
// and the kind must stay off the non-hinted mechanisms.
func TestSpuriousElideOutcomes(t *testing.T) {
	rep, err := Campaign{Seed: 9, Trials: 12, Mechs: []string{"lmi"}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	miss, tol := 0, 0
	for _, tr := range rep.Trials {
		if tr.Kind != KindSpuriousElide {
			continue
		}
		switch tr.Outcome {
		case OutcomeMissed:
			miss++
			if !strings.Contains(tr.Detail, "out-of-bounds store landed") {
				t.Errorf("trial %d: missed without the landed-store observation: %s", tr.Index, tr.Detail)
			}
		case OutcomeTolerated:
			tol++
			if !tr.HasFault {
				t.Errorf("trial %d: tolerated elide should still catch the designed violation: %s",
					tr.Index, tr.Detail)
			}
		default:
			t.Errorf("trial %d: spurious-elide outcome %s (%s), want missed or tolerated",
				tr.Index, tr.Outcome, tr.Detail)
		}
	}
	if miss == 0 || tol == 0 {
		t.Fatalf("seed did not exercise both elide site classes (miss=%d tol=%d); widen Trials", miss, tol)
	}
	inj, err := NewInjector(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []string{"baggybounds", "gpushield"} {
		for _, k := range inj.EligibleKinds(mech) {
			if k == KindSpuriousElide {
				t.Errorf("%s: spurious-elide eligible without a hinted microcode path", mech)
			}
		}
	}
}

// panicCheckMech panics at the EC hook — a worst-case mechanism
// plug-in bug injected under every trial of a campaign.
type panicCheckMech struct {
	sim.Mechanism
}

func (m panicCheckMech) CheckAccess(*sim.WarpAccess, uint32) (uint64, int, *core.Fault) {
	panic("chaos test: mechanism bug at EC hook")
}

// TestCampaignContainsPanickingMechanism: with a mechanism that panics
// on every memory access, the campaign still completes, classifies the
// affected trials as Degraded, and never lets the panic reach the test
// process.
func TestCampaignContainsPanickingMechanism(t *testing.T) {
	c := Campaign{Seed: 5, Trials: 1, Mechs: []string{"lmi"}}
	c.wrap = func(_ string, m sim.Mechanism) sim.Mechanism {
		return panicCheckMech{Mechanism: m}
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) == 0 {
		t.Fatal("no trials ran")
	}
	if d := rep.Degraded(); d != len(rep.Trials) {
		t.Errorf("degraded %d of %d trials; every trial launches and must hit the panicking hook\n%s",
			d, len(rep.Trials), rep.Render(true))
	}
	for _, tr := range rep.Trials {
		if tr.Outcome == OutcomeDegraded && !strings.Contains(tr.Detail, "panic") {
			t.Errorf("trial %d degraded without panic context: %s", tr.Index, tr.Detail)
		}
	}
}

// TestCampaignCancellation: a cancelled context fails remaining trials
// as Degraded and Run reports the context error, without wedging.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Campaign{Seed: 1, Trials: 1, Mechs: []string{"lmi"}}.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, tr := range rep.Trials {
		if tr.Outcome != OutcomeDegraded {
			t.Fatalf("trial %d ran under a cancelled context: %s", tr.Index, tr.Outcome)
		}
	}
}
