package fastsim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lmi/internal/fastsim"
	"lmi/internal/isa"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// tierMessage strips the tier's package prefix from a launch error, so
// the two tiers' messages compare on what they say.
func tierMessage(err error) string {
	msg := err.Error()
	for _, p := range []string{"fastsim: ", "sim: "} {
		if s, ok := strings.CutPrefix(msg, p); ok {
			return s
		}
	}
	return msg
}

// TestTierLaunchErrors runs the launch prelude's rejections and the
// run-time errors of the SIMT stack and the heap intrinsics on both
// tiers: every error case must fail on both with the same message (up
// to the package prefix), and FREE of a pointer the device heap never
// handed out must record the same fault projection on both.
func TestTierLaunchErrors(t *testing.T) {
	rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
	pt := func(ins ...isa.Instr) []isa.Instr {
		for i := range ins {
			ins[i].Pred = isa.PT
		}
		return ins
	}
	exit := isa.Instr{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT}
	trivial := prog("trivial", 1, []isa.Instr{exit})
	// Lanes below 16 branch over the store, the rest fall through: a
	// divergent branch with no SSY to name its reconvergence point.
	divergent := prog("divergent", 1, append(pt(
		isa.Instr{Op: isa.S2R, Dst: 0, Src: rz, Aux: uint8(isa.SRTidX)},
		isa.Instr{Op: isa.SETP, Dst: 0, Src: [3]isa.Reg{0, isa.RZ, isa.RZ}, HasImm: true, Imm: 16, Aux: uint8(isa.CmpLT)},
	), isa.Instr{Op: isa.BRA, Dst: isa.RZ, Src: rz, Target: 4, Pred: 0},
		isa.Instr{Op: isa.NOP, Dst: isa.RZ, Src: rz, Pred: isa.PT}, exit))
	negMalloc := prog("neg_malloc", 2, append(pt(
		isa.Instr{Op: isa.MOV, Dst: 0, Src: rz, HasImm: true, Imm: -8, Aux: isa.AuxW64},
		isa.Instr{Op: isa.MALLOC, Dst: 1, Src: rz},
	), exit))
	negMalloc.Instrs[1].Src[0] = 0
	freeStray := prog("free_stray", 1, append(pt(
		isa.Instr{Op: isa.MOV, Dst: 0, Src: rz, HasImm: true, Imm: 0x1230},
		isa.Instr{Op: isa.FREE, Dst: isa.RZ, Src: [3]isa.Reg{0, isa.RZ, isa.RZ}},
	), exit))

	cases := []struct {
		name        string
		p           *isa.Program
		grid, block int
		nparams     int
	}{
		{"zero grid", trivial, 0, 32, 3},
		{"2048-thread block", trivial, 1, 2048, 3},
		{"missing params", trivial, 1, 32, 2},
		{"invalid program", &isa.Program{Name: "bad"}, 1, 32, 3},
		{"divergent BRA without SSY", divergent, 1, 32, 3},
		{"negative MALLOC size", negMalloc, 1, 32, 3},
	}
	launch := func(tier fastsim.Tier, v workloads.Variant, halt bool, p *isa.Program, grid, block, nparams int) (*sim.KernelStats, error) {
		cfg := sim.ScaledConfig(1)
		cfg.HaltOnFault = halt
		dev, err := sim.NewDevice(cfg, workloads.NewMechanism(v))
		if err != nil {
			t.Fatal(err)
		}
		return fastsim.LaunchTierCtx(context.Background(), tier, dev, p, grid, block, make([]uint64, nparams))
	}
	for _, c := range cases {
		var msgs [2]string
		for i, tier := range []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled} {
			st, err := launch(tier, workloads.VariantBase, true, c.p, c.grid, c.block, c.nparams)
			if err == nil {
				t.Errorf("%s: %v tier accepted the launch", c.name, tier)
				continue
			}
			if st != nil {
				t.Errorf("%s: %v tier returned stats with its error", c.name, tier)
			}
			msgs[i] = tierMessage(err)
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: errors diverge:\n  cycle:    %s\n  compiled: %s", c.name, msgs[0], msgs[1])
		}
	}

	// Halting stops at lane 0's fault; without it every lane records one.
	for _, halt := range []bool{true, false} {
		for _, v := range []workloads.Variant{workloads.VariantBase, workloads.VariantLMI} {
			label := fmt.Sprintf("FREE of a stray pointer/%v/halt=%v", v, halt)
			var proj [2]string
			for i, tier := range []fastsim.Tier{fastsim.TierCycle, fastsim.TierCompiled} {
				st, err := launch(tier, v, halt, freeStray, 1, 32, 3)
				if err != nil {
					t.Fatalf("%s: %v tier: %v", label, tier, err)
				}
				if want := map[bool]int{true: 1, false: 32}[halt]; len(st.Faults) != want {
					t.Errorf("%s: %v tier recorded %d faults, want %d", label, tier, len(st.Faults), want)
				}
				proj[i] = fmt.Sprintf("halted=%v %q", st.Halted, faultProjection(st.Faults))
			}
			if proj[0] != proj[1] {
				t.Errorf("%s: fault projections diverge:\n  cycle:    %s\n  compiled: %s", label, proj[0], proj[1])
			}
		}
	}
}
