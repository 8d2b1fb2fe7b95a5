package chaos

import (
	"fmt"
	"testing"

	"lmi/internal/isa"
	"lmi/internal/sim"
	"lmi/internal/workloads"
)

// cfgPin is a sim.Tracer checking every executed PC transition of every
// warp against the program's isa.CFG. A transition must be a CFG edge,
// a SIMT stack pop to a CFG successor of an earlier divergent BRA, or a
// reconvergence at that branch's CFG reconvergence point.
type cfgPin struct {
	t     *testing.T
	label string
	prog  *isa.Program
	g     *isa.CFG
	warps map[[2]int]*warpTrail
	bad   int
}

// warpTrail is one warp's last executed PC plus the executed
// conditional branches that have not reconverged yet, most recent
// last.
type warpTrail struct {
	pc   int
	open []int
}

func newCFGPin(t *testing.T, label string, p *isa.Program) *cfgPin {
	return &cfgPin{t: t, label: label, prog: p, g: isa.NewCFG(p), warps: map[[2]int]*warpTrail{}}
}

func (c *cfgPin) Trace(ev *sim.TraceEvent) {
	key := [2]int{ev.SM, ev.Warp}
	w := c.warps[key]
	switch {
	case w == nil:
		w = &warpTrail{pc: -1}
		c.warps[key] = w
		if ev.PC != 0 {
			c.fail(key, "warp starts at pc %d, not the entry", ev.PC)
		}
	case !c.explained(w, ev.PC):
		c.fail(key, "pc %d -> %d is no CFG edge, SIMT pop or reconvergence", w.pc, ev.PC)
	}
	w.pc = ev.PC
	if in := &c.prog.Instrs[ev.PC]; in.Op == isa.BRA && in.Pred != isa.PT && ev.Active != 0 {
		for i, b := range w.open {
			if b == ev.PC {
				w.open = append(w.open[:i], w.open[i+1:]...)
				break
			}
		}
		w.open = append(w.open, ev.PC)
	}
}

// explained reports whether the warp may move from w.pc to pc. Past a
// CFG edge, the move must be a SIMT pop: the departing path reached
// the reconvergence point of an open branch (or retired at an EXIT),
// and pc is that branch's other side or its reconvergence point.
// Executing a reconvergence point closes the branches rejoining there.
func (c *cfgPin) explained(w *warpTrail, pc int) bool {
	ok := c.edge(w.pc, pc)
	retired := c.prog.Instrs[w.pc].Op == isa.EXIT
	for i := len(w.open) - 1; i >= 0 && !ok; i-- {
		b := w.open[i]
		if r := c.g.Reconv(b); r >= 0 && (retired || c.edge(w.pc, r)) {
			ok = pc == r || c.edge(b, pc)
		}
	}
	for i := len(w.open) - 1; i >= 0; i-- {
		if c.g.Reconv(w.open[i]) == pc {
			w.open = w.open[:i]
			break
		}
	}
	return ok
}

func (c *cfgPin) edge(from, to int) bool {
	for _, e := range c.g.Succs(from) {
		if e.To == to {
			return true
		}
	}
	return false
}

func (c *cfgPin) fail(key [2]int, format string, args ...any) {
	if c.bad++; c.bad <= 5 {
		c.t.Errorf("%s SM%d warp%d: %s", c.label, key[0], key[1], fmt.Sprintf(format, args...))
	}
}

// TestCFGPinnedToCycleSim pins isa.CFG to the cycle simulator's SIMT
// stack: every PC transition of every warp, over all workloads under
// baseline and LMI (LMI only under -short) and over every mechanism's
// chaos victims, must be one the CFG predicts.
func TestCFGPinnedToCycleSim(t *testing.T) {
	cfg := sim.ScaledConfig(2)
	variants := []workloads.Variant{workloads.VariantBase, workloads.VariantLMI}
	if testing.Short() {
		variants = variants[1:]
	}
	for _, s := range workloads.All() {
		for _, v := range variants {
			p, err := s.Compile(v)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", s.Name, v, err)
			}
			dev, err := sim.NewDevice(cfg, workloads.NewMechanism(v))
			if err != nil {
				t.Fatal(err)
			}
			in, err := dev.Malloc(s.N * 4)
			if err != nil {
				t.Fatal(err)
			}
			out, err := dev.Malloc(s.N * 4)
			if err != nil {
				t.Fatal(err)
			}
			pin := newCFGPin(t, s.Name+"/"+v.String(), p)
			dev.Tracer = pin
			if _, err := dev.Launch(p, s.LaunchGrid(v), s.Block, []uint64{in, out, s.N}); err != nil {
				t.Fatalf("%s/%s: launch: %v", s.Name, v, err)
			}
		}
	}

	inj, err := NewInjector(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range inj.defs {
		pv := inj.progs[d.name]
		for _, victim := range []struct {
			p       *isa.Program
			buffers int
		}{{pv.stream, 2}, {pv.oob, 1}, {pv.race, 0}} {
			dev, err := sim.NewDevice(TrialConfig(1), d.make())
			if err != nil {
				t.Fatal(err)
			}
			var params []uint64
			for i := 0; i < victim.buffers; i++ {
				ptr, err := dev.Malloc(victimBufBytes)
				if err != nil {
					t.Fatal(err)
				}
				params = append(params, ptr)
			}
			dev.Tracer = newCFGPin(t, d.name+"/"+victim.p.Name, victim.p)
			if _, err := dev.Launch(victim.p, 1, victimThreads, params); err != nil {
				t.Fatalf("%s/%s: launch: %v", d.name, victim.p.Name, err)
			}
		}
	}
}
