package isa

import (
	"reflect"
	"testing"
)

func TestCFGSuccessorRules(t *testing.T) {
	rz := [3]Reg{RZ, RZ, RZ}
	p := &Program{Instrs: []Instr{
		0: {Op: SSY, Src: rz, Target: 4, Pred: PT},
		1: {Op: BRA, Src: rz, Target: 3, Pred: 0},
		2: {Op: BRA, Src: rz, Target: 6, Pred: PT, PredNeg: true}, // never taken
		3: {Op: EXIT, Src: rz, Pred: 1},                           // retires guard-true lanes only
		4: {Op: BAR, Src: rz, Pred: PT},
		5: {Op: BRA, Src: rz, Target: 4, Pred: PT},
		6: {Op: EXIT, Src: rz, Pred: PT},
		7: {Op: BRA, Src: rz, Target: 8, Pred: 2}, // target leaves the program
	}}
	g := NewCFG(p)
	want := [][]Edge{
		{{To: 1}},
		{{To: 3, Taken: true}, {To: 2}},
		{{To: 3}},
		{{To: 4}},
		{{To: 5}},
		{{To: 4, Taken: true}},
		nil,
		nil,
	}
	for pc, w := range want {
		if got := g.Succs(pc); len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
			t.Errorf("Succs(%d) = %v, want %v", pc, got, w)
		}
	}
	if got := g.Preds(4); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("Preds(4) = %v, want [3 5]", got)
	}
	if g.InDegree(0) != 1 || g.InDegree(3) != 2 || g.InDegree(6) != 0 {
		t.Errorf("in-degrees 0/3/6 = %d/%d/%d, want 1/2/0", g.InDegree(0), g.InDegree(3), g.InDegree(6))
	}
	for pc, tgt := range []bool{false, false, false, true, true, false, false, false} {
		if g.Target(pc) != tgt {
			t.Errorf("Target(%d) = %v, want %v", pc, g.Target(pc), tgt)
		}
	}
	if g.Reconv(1) != 4 || g.Reconv(2) != -1 {
		t.Errorf("Reconv(1), Reconv(2) = %d, %d, want 4, -1", g.Reconv(1), g.Reconv(2))
	}
	wantBlocks := []Block{{0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}}
	if got := g.Blocks(); !reflect.DeepEqual(got, wantBlocks) {
		t.Errorf("Blocks() = %v, want %v", got, wantBlocks)
	}

	seen := make([]bool, len(p.Instrs))
	g.PhaseReach(0, seen)
	if want := []bool{true, true, true, true, true, false, false, false}; !reflect.DeepEqual(seen, want) {
		t.Errorf("PhaseReach(0) = %v, want %v (the BAR at 4 ends the phase)", seen, want)
	}
	seen = make([]bool, len(p.Instrs))
	g.Reach(2, seen)
	if want := []bool{false, false, true, true, true, true, false, false}; !reflect.DeepEqual(seen, want) {
		t.Errorf("Reach(2) = %v, want %v", seen, want)
	}
}

func TestWorklistPopsLowestFirst(t *testing.T) {
	w := NewWorklist(200)
	var got []int
	for _, pc := range []int{150, 3, 70, 3} {
		w.Push(pc)
	}
	w.Remove(70)
	for pc, ok := w.Pop(); ok; pc, ok = w.Pop() {
		got = append(got, pc)
		if pc == 150 {
			w.Push(64) // a push below the last pop is still served next
		}
	}
	if want := []int{3, 150, 64}; !reflect.DeepEqual(got, want) {
		t.Errorf("pop order %v, want %v", got, want)
	}
}

func TestRewriteRemapsTargets(t *testing.T) {
	rz := [3]Reg{RZ, RZ, RZ}
	in := []Instr{
		{Op: BRA, Src: rz, Target: 2, Pred: 0},
		{Op: NOP, Src: rz, Pred: PT},
		{Op: SSY, Src: rz, Target: 4, Pred: PT},
		{Op: BRA, Src: rz, Target: 1, Pred: PT},
		{Op: EXIT, Src: rz, Pred: PT},
	}
	// Drop the NOP; put a NOP before the SSY and after the EXIT.
	out := Rewrite(in, func(out []Instr, i int) []Instr {
		switch in[i].Op {
		case NOP:
			return out
		case SSY:
			out = append(out, in[1])
		}
		out = append(out, in[i])
		if in[i].Op == EXIT {
			out = append(out, in[1])
		}
		return out
	})
	var targets []int32
	for _, o := range out {
		if o.Op == BRA || o.Op == SSY {
			targets = append(targets, o.Target)
		}
	}
	// BRA 2 lands on the inserted NOP; SSY 4 on the EXIT; BRA 1 on the
	// instruction after the dropped NOP.
	if want := []int32{1, 4, 1}; len(out) != 6 || !reflect.DeepEqual(targets, want) {
		t.Errorf("rewritten %d instrs with targets %v, want 6 with %v", len(out), targets, want)
	}
}
