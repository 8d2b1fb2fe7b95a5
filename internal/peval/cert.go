package peval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"lmi/internal/bounds"
	"lmi/internal/isa"
)

// Transform kinds, in the vocabulary the specialization certificate
// records and lint.SpecializeAudit re-judges. Every kind is a
// semantics-preserving rewrite under the certificate's contract; the
// certificate is a replayable proof script — ApplyTransform performs
// the mechanical rewrite, the audit supplies the independent judgment
// that each rewrite's side conditions actually hold.
const (
	// TSetElide sets the E hint on a memory access the concrete
	// contract proves in-bounds (justified by re-running the elide
	// audit over the whole residual).
	TSetElide = "set-elide"
	// TFoldCount replaces the element-count constant-bank load with
	// MOV #n when the contract pins the count exactly.
	TFoldCount = "fold-count"
	// TFoldSReg replaces a launch-dimension special-register read with
	// MOV #dim (the contract fixes the launch geometry).
	TFoldSReg = "fold-sreg"
	// TFoldConst replaces an integer ALU instruction whose result is a
	// proven constant with MOV #c.
	TFoldConst = "fold-const"
	// TFoldImm rewrites a register operand whose value is a proven
	// 32-bit constant into the opcode's immediate form.
	TFoldImm = "fold-imm"
	// TPruneTaken unconditionalizes a predicated branch proven
	// always-taken.
	TPruneTaken = "prune-taken"
	// TDrop removes a batch of instructions (see the Drop reasons) and
	// remaps branch targets across the holes.
	TDrop = "drop"
	// TUnroll replaces a constant-trip counted loop with its fully
	// unrolled straight-line body.
	TUnroll = "unroll"
)

// Drop reasons.
const (
	// DropBranchFalse is a predicated branch proven never-taken.
	DropBranchFalse = "branch-false"
	// DropUnreachable is an instruction constant propagation proves no
	// execution reaches.
	DropUnreachable = "unreachable"
	// DropDead is a pure register writer whose destination no retained
	// instruction reads.
	DropDead = "dead"
	// DropDeadPred is a predicate writer whose predicate no retained
	// instruction uses as a guard or SEL selector.
	DropDeadPred = "dead-pred"
	// DropSSYUniform is an SSY whose pushed reconvergence point is
	// erased by the next retained instruction, an unconditional (hence
	// non-divergent) branch, before anything can consume it.
	DropSSYUniform = "ssy-uniform"
)

// Drop is one removed instruction within a TDrop batch.
type Drop struct {
	PC     int    `json:"pc"`
	Reason string `json:"reason"`
}

// UnrollInfo describes one TUnroll: the canonical counted-loop region
// [Head, BodyEnd] (SETP guard; SSY Exit; @P BRA body; BRA Exit; body;
// BRA Head) replaced by Trip copies of the body followed by the
// original guard SETP (recomputing the exit-time predicate value).
type UnrollInfo struct {
	Head      int     `json:"head"`
	BodyStart int     `json:"body_start"`
	BodyEnd   int     `json:"body_end"`
	Exit      int     `json:"exit"`
	Trip      int64   `json:"trip"`
	IndReg    isa.Reg `json:"ind_reg"`
}

// Transform is one entry of the certificate's transformation log.
type Transform struct {
	Kind string `json:"kind"`
	// PC anchors the in-place kinds (set-elide, fold-*, prune-taken).
	PC int `json:"pc"`
	// Imm is the folded constant for the fold kinds (stored
	// sign-extended; always representable in 32 bits).
	Imm int64 `json:"imm"`
	// Drops is the batch for TDrop (ascending, distinct PCs).
	Drops []Drop `json:"drops,omitempty"`
	// Unroll is the region for TUnroll.
	Unroll *UnrollInfo `json:"unroll,omitempty"`
}

// Certificate is the specialization certificate: the contract shape
// the residual is valid under, the full transformation log (a
// replayable proof script from the general program to the residual),
// and per-instruction provenance back into the general program (and
// through its source map to the IR).
type Certificate struct {
	Name     string          `json:"name"`
	Shape    string          `json:"shape"`
	Contract bounds.Contract `json:"contract"`
	// OrigInstrs and ResidualInstrs pin the endpoint lengths.
	OrigInstrs     int `json:"orig_instrs"`
	ResidualInstrs int `json:"residual_instrs"`
	// Transforms is the ordered log; replaying it from the general
	// program must reproduce the residual exactly.
	Transforms []Transform `json:"transforms"`
	// Provenance maps each residual instruction index to the index of
	// the general-program instruction it descends from.
	Provenance []int `json:"provenance"`
}

// Encode renders the canonical certificate bytes (compact JSON with
// fixed field order, newline-terminated): the form the bundle stores
// and digests.
func (c *Certificate) Encode() ([]byte, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("peval: encode certificate: %w", err)
	}
	return append(data, '\n'), nil
}

// Digest returns the hex SHA-256 of the canonical certificate bytes.
func (c *Certificate) Digest() (string, error) {
	data, err := c.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// cloneProgram deep-copies a program's instruction stream (the scalar
// metadata copies by value; slices the evaluator never mutates are
// shared).
func cloneProgram(p *isa.Program) *isa.Program {
	q := *p
	q.Instrs = make([]isa.Instr, len(p.Instrs))
	copy(q.Instrs, p.Instrs)
	return &q
}

// identityProv is the provenance of the untransformed program.
func identityProv(n int) []int {
	prov := make([]int, n)
	for i := range prov {
		prov[i] = i
	}
	return prov
}

// elidable reports whether the E hint is legal on the opcode (the
// extent-checked access set).
func elidable(op isa.Opcode) bool {
	switch op {
	case isa.LDG, isa.STG, isa.LDL, isa.STL, isa.ATOMG:
		return true
	}
	return false
}

// ApplyTransform mechanically applies one transform to p, maintaining
// the per-instruction provenance array, and returns the rewritten
// program and provenance. The in-place kinds (set-elide, the folds,
// prune-taken) rewrite one instruction of p itself and return p and
// prov; a drop or an unroll, which change the program's length, build
// a new program and provenance and leave p and prov untouched. A
// caller that still needs p as it was copies it first. On error p and
// prov are unchanged. It enforces structural integrity only — indices
// in range, opcode shapes, hinted instructions immutable, branch
// targets remappable; whether the transform's semantic side conditions
// hold is the audit's judgment (lint.SpecializeAudit), not this
// function's.
func ApplyTransform(p *isa.Program, prov []int, t Transform) (*isa.Program, []int, error) {
	if len(prov) != len(p.Instrs) {
		return nil, nil, fmt.Errorf("peval: %s: provenance length %d != %d instructions",
			t.Kind, len(prov), len(p.Instrs))
	}
	switch t.Kind {
	case TSetElide, TFoldCount, TFoldSReg, TFoldConst, TFoldImm, TPruneTaken:
		if t.PC < 0 || t.PC >= len(p.Instrs) {
			return nil, nil, fmt.Errorf("peval: %s: pc %d out of range [0, %d)", t.Kind, t.PC, len(p.Instrs))
		}
		in := &p.Instrs[t.PC]
		switch t.Kind {
		case TSetElide:
			if !elidable(in.Op) {
				return nil, nil, fmt.Errorf("peval: set-elide: pc %d: %s is not an extent-checked access", t.PC, in.Op)
			}
			if in.Hint.E {
				return nil, nil, fmt.Errorf("peval: set-elide: pc %d: E already set", t.PC)
			}
			in.Hint.E = true
		case TFoldCount, TFoldSReg, TFoldConst:
			if in.Hint.A || in.Hint.E {
				return nil, nil, fmt.Errorf("peval: %s: pc %d: hinted instructions are immutable", t.Kind, t.PC)
			}
			if int64(int32(t.Imm)) != t.Imm {
				return nil, nil, fmt.Errorf("peval: %s: pc %d: constant %d not representable in 32 bits", t.Kind, t.PC, t.Imm)
			}
			if !in.WritesDst() {
				return nil, nil, fmt.Errorf("peval: %s: pc %d: %s has no register destination", t.Kind, t.PC, in.Op)
			}
			*in = isa.Instr{
				Op: isa.MOV, Dst: in.Dst,
				Src: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ},
				Imm: int32(t.Imm), HasImm: true,
				Pred: in.Pred, PredNeg: in.PredNeg, Ctl: in.Ctl,
			}
		case TFoldImm:
			if in.Hint.A || in.Hint.E {
				return nil, nil, fmt.Errorf("peval: fold-imm: pc %d: hinted instructions are immutable", t.PC)
			}
			idx := in.Op.ImmSrcIndex()
			if idx < 0 || in.HasImm {
				return nil, nil, fmt.Errorf("peval: fold-imm: pc %d: %s has no free immediate slot", t.PC, in.Op)
			}
			if int64(int32(t.Imm)) != t.Imm {
				return nil, nil, fmt.Errorf("peval: fold-imm: pc %d: constant %d not representable in 32 bits", t.PC, t.Imm)
			}
			in.Imm = int32(t.Imm)
			in.HasImm = true
			in.Src[idx] = isa.RZ
		case TPruneTaken:
			if in.Op != isa.BRA {
				return nil, nil, fmt.Errorf("peval: prune-taken: pc %d: %s is not a branch", t.PC, in.Op)
			}
			if in.Pred == isa.PT && !in.PredNeg {
				return nil, nil, fmt.Errorf("peval: prune-taken: pc %d: branch already unconditional", t.PC)
			}
			in.Pred, in.PredNeg = isa.PT, false
		}
		return p, prov, nil

	case TDrop:
		if len(t.Drops) == 0 {
			return nil, nil, fmt.Errorf("peval: drop: empty batch")
		}
		dropped := make([]bool, len(p.Instrs))
		prev := -1
		for _, d := range t.Drops {
			if d.PC <= prev || d.PC >= len(p.Instrs) {
				return nil, nil, fmt.Errorf("peval: drop: pc %d not ascending in range [0, %d)", d.PC, len(p.Instrs))
			}
			prev = d.PC
			dropped[d.PC] = true
		}
		// A branch into a dropped pure instruction lands on the next
		// retained one: the fall-through semantics of the drop.
		q := *p
		pr := make([]int, 0, len(p.Instrs))
		q.Instrs = isa.Rewrite(p.Instrs, func(out []isa.Instr, i int) []isa.Instr {
			if dropped[i] {
				return out
			}
			pr = append(pr, prov[i])
			return append(out, p.Instrs[i])
		})
		return &q, pr, nil

	case TUnroll:
		u := t.Unroll
		if u == nil {
			return nil, nil, fmt.Errorf("peval: unroll: missing region")
		}
		h, bs, be := u.Head, u.BodyStart, u.BodyEnd
		if h < 1 || bs != h+4 || be < bs || be >= len(p.Instrs) || u.Exit != be+1 {
			return nil, nil, fmt.Errorf("peval: unroll: malformed region head=%d body=[%d,%d) exit=%d len=%d",
				h, bs, be, u.Exit, len(p.Instrs))
		}
		if u.Trip < 0 {
			return nil, nil, fmt.Errorf("peval: unroll: negative trip %d", u.Trip)
		}
		head := p.Instrs[h]
		if head.Op != isa.SETP ||
			p.Instrs[h+1].Op != isa.SSY || int(p.Instrs[h+1].Target) != u.Exit ||
			p.Instrs[h+2].Op != isa.BRA || int(p.Instrs[h+2].Target) != bs ||
			p.Instrs[h+3].Op != isa.BRA || int(p.Instrs[h+3].Target) != u.Exit ||
			p.Instrs[be].Op != isa.BRA || int(p.Instrs[be].Target) != h {
			return nil, nil, fmt.Errorf("peval: unroll: region at %d does not match the counted-loop shape", h)
		}
		for i := bs; i < be; i++ {
			switch p.Instrs[i].Op {
			case isa.BRA, isa.SSY, isa.EXIT, isa.BAR:
				return nil, nil, fmt.Errorf("peval: unroll: body pc %d: control flow (%s) in loop body", i, p.Instrs[i].Op)
			}
		}
		copyLen := be - bs
		newLen := int(u.Trip)*copyLen + 1
		if newLen > 1<<20 {
			return nil, nil, fmt.Errorf("peval: unroll: region of %d instructions exceeds the structural bound", newLen)
		}
		oldLen := be - h + 1
		delta := int32(newLen - oldLen)
		remap := func(tgt int32) (int32, error) {
			switch {
			case int(tgt) <= h:
				return tgt, nil
			case int(tgt) > be:
				return tgt + delta, nil
			default:
				return 0, fmt.Errorf("peval: unroll: branch target %d enters the unrolled region", tgt)
			}
		}
		q := *p
		q.Instrs = make([]isa.Instr, 0, len(p.Instrs)+int(delta))
		pr := make([]int, 0, len(p.Instrs)+int(delta))
		appendRemapped := func(i int) error {
			in := p.Instrs[i]
			if in.Op == isa.BRA || in.Op == isa.SSY {
				tgt, err := remap(in.Target)
				if err != nil {
					return fmt.Errorf("%w (at pc %d)", err, i)
				}
				in.Target = tgt
			}
			q.Instrs = append(q.Instrs, in)
			pr = append(pr, prov[i])
			return nil
		}
		for i := 0; i < h; i++ {
			if err := appendRemapped(i); err != nil {
				return nil, nil, err
			}
		}
		for k := int64(0); k < u.Trip; k++ {
			for i := bs; i < be; i++ {
				q.Instrs = append(q.Instrs, p.Instrs[i])
				pr = append(pr, prov[i])
			}
		}
		// The original guard SETP runs once more after the last copy:
		// the loop exits with the guard predicate freshly computed
		// false, and the residual must leave the identical predicate
		// state behind.
		q.Instrs = append(q.Instrs, head)
		pr = append(pr, prov[h])
		for i := be + 1; i < len(p.Instrs); i++ {
			if err := appendRemapped(i); err != nil {
				return nil, nil, err
			}
		}
		return &q, pr, nil

	default:
		return nil, nil, fmt.Errorf("peval: unknown transform kind %q", t.Kind)
	}
}
