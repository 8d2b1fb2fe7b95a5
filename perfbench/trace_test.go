package main

import (
	"context"
	"testing"
	"time"

	"lmi/internal/experiments"
	"lmi/internal/fastsim"
	"lmi/internal/workloads"
)

func TestSelfTimesCountOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "job", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "job", Start: 80, End: 90},
		{ID: 5, Parent: 2, Name: "launch", Start: 20, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 30, 2: 15, 3: 40, 4: 10, 5: 25} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.5: 3, 0.99: 5, 0.2: 1, 0.4: 2} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestCPUSharesAttributeSimulatorFrames(t *testing.T) {
	s := workloads.ByName("gaussian")
	prog, err := s.Compile(workloads.VariantLMI)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := cpuProfile(func() {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
			if _, err := workloads.RunProgramTierAtCtx(context.Background(), s, workloads.VariantLMI,
				experiments.SimConfig(), s.Grid, fastsim.TierCycle, prog, nil); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(prof, []fileGroup{
		{"sim", []string{"internal/sim/"}},
		{"mem", []string{"internal/mem/"}},
		{"none", []string{"internal/serve/"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if shares["sim"] < 0.5 || shares["none"] != 0 || shares["sim"]+shares["mem"] > 1 {
		t.Errorf("shares %v: want most samples in sim, none in serve", shares)
	}
}
