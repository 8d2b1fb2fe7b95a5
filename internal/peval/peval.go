// Package peval is the contract-driven partial evaluator: given a
// kernel and a launch contract that is fully or partially known at
// deployment time, it specializes the compiled microcode against the
// contract — folding contract constants (the pinned element count, the
// launch geometry) into the dataflow, running sparse conditional
// constant propagation with branch pruning, unrolling small
// constant-trip loops, stripping provably-dead instructions, and
// pre-resolving E hint bits the concrete contract proves — and emits
// the residual program together with a specialization certificate.
//
// The certificate is a replayable proof script: the contract shape,
// the ordered transformation log, and per-instruction provenance back
// to the general program (and through its source map to the IR).
// Soundness is enforced twice, in the pattern of the elide audit: the
// transfer functions here mirror the simulator's semantics bit for
// bit, and lint.SpecializeAudit independently replays the log, judging
// every transform's side conditions with its own analysis before the
// residual may be served. A contract the specializer cannot exploit —
// empty, partial, or not covered by the program's general contract —
// yields the identity residual: byte-for-byte the general program,
// with an empty transformation log.
package peval

import (
	"fmt"
	"strconv"
	"strings"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/ir"
	"lmi/internal/isa"
)

// Options bounds the specializer's transformation budget.
type Options struct {
	// MaxUnrollTrip caps the trip count of an unrollable loop
	// (default 64).
	MaxUnrollTrip int
	// MaxUnrollInstrs caps the instruction count of one unrolled
	// region (default 4096).
	MaxUnrollInstrs int
	// MaxRounds caps the fold/prune/drop/unroll fixpoint rounds
	// (default 32).
	MaxRounds int
}

func (o Options) withDefaults() Options {
	if o.MaxUnrollTrip == 0 {
		o.MaxUnrollTrip = 64
	}
	if o.MaxUnrollInstrs == 0 {
		o.MaxUnrollInstrs = 4096
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 32
	}
	return o
}

// Result is one specialization: the general (elided) program the
// kernel compiles to, the residual specialized against the concrete
// contract, the shared source map, and the certificate tying them
// together.
type Result struct {
	Original  *isa.Program
	Residual  *isa.Program
	SourceMap []compiler.SourceLoc
	Cert      *Certificate
}

// Specialize compiles f under its general contract and partially
// evaluates the program against the concrete contract. When the
// concrete contract is empty or does not refine the general one, the
// residual is the identity: the general program byte-for-byte with an
// empty transformation log (still certified, so the serving path has
// one uniform artifact shape).
func Specialize(f *ir.Func, general, concrete bounds.Contract, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	orig, srcMap, _, err := compiler.CompileElidedWithSourceMap(f, general)
	if err != nil {
		return nil, fmt.Errorf("peval: %s: general compile: %w", f.Name, err)
	}
	res := &Result{Original: orig, SourceMap: srcMap}
	cert := &Certificate{
		Name: orig.Name, Shape: ShapeOf(concrete), Contract: concrete,
		OrigInstrs: len(orig.Instrs),
	}
	// The working program: ApplyTransform rewrites it in place.
	p := cloneProgram(orig)
	prov := identityProv(len(orig.Instrs))
	if concrete != (bounds.Contract{}) && Covers(general, concrete) {
		// E-bit pre-resolution: analyse the kernel under the concrete
		// contract and adopt every extra proof, placed by the rule the
		// general compile used. A hint the general contract proved can
		// never be lost under a refinement.
		if concrete != general {
			cres, err := bounds.Analyze(f, concrete)
			if err != nil {
				return nil, fmt.Errorf("peval: %s: concrete analysis: %w", f.Name, err)
			}
			if oob := cres.OOB(); len(oob) > 0 {
				return nil, fmt.Errorf("peval: %s: concrete analysis: %w", f.Name,
					&bounds.OOBError{Func: f.Name, Access: oob[0]})
			}
			for pc := range orig.Instrs {
				in := &orig.Instrs[pc]
				e := compiler.Elides(in.Op, srcMap[pc], cres)
				if in.Hint.E && !e {
					return nil, fmt.Errorf("peval: %s: concrete analysis lost a proven E hint at pc %d", f.Name, pc)
				}
				if in.Hint.E || !e {
					continue
				}
				t := Transform{Kind: TSetElide, PC: pc}
				if p, prov, err = ApplyTransform(p, prov, t); err != nil {
					return nil, fmt.Errorf("peval: %s: %w", f.Name, err)
				}
				cert.Transforms = append(cert.Transforms, t)
			}
		}
		if p, prov, err = runRounds(p, prov, concrete, opt, cert); err != nil {
			return nil, fmt.Errorf("peval: %s: %w", f.Name, err)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("peval: %s: residual invalid: %w", f.Name, err)
		}
	}
	cert.ResidualInstrs = len(p.Instrs)
	cert.Provenance = prov
	res.Residual, res.Cert = p, cert
	return res, nil
}

// Covers reports whether the concrete contract refines the general
// one: any launch satisfying the concrete contract also satisfies the
// general contract the program was compiled (and its E bits proven)
// under. The launch geometry must match exactly — the compiled code's
// special-register facts depend on it.
func Covers(general, concrete bounds.Contract) bool {
	gd, cd := contractDims(general), contractDims(concrete)
	if gd.bdx != cd.bdx || gd.bdy != cd.bdy || gd.gdx != cd.gdx || gd.gdy != cd.gdy {
		return false
	}
	if general.CountParam < 0 {
		return concrete.CountParam < 0
	}
	return concrete.CountParam == general.CountParam &&
		concrete.CountMin >= general.CountMin &&
		concrete.CountMax <= general.CountMax &&
		concrete.CountMin >= 1 && concrete.CountMax >= concrete.CountMin &&
		concrete.PtrBytesPerCount >= general.PtrBytesPerCount
}

// Match reports whether a launch (element count n at grid x block,
// 1-D) satisfies the contract — the serving path's dispatch test: a
// specialized residual only runs for launches its contract covers,
// everything else falls back to the general program.
func Match(c bounds.Contract, n uint64, grid, block int) bool {
	d := contractDims(c)
	if !d.ok || d.bdy != 1 || d.gdy != 1 {
		return false
	}
	if int64(block) != d.bdx || int64(grid) != d.gdx {
		return false
	}
	if c.CountParam >= 0 {
		if n > uint64(c.CountMax) || int64(n) < c.CountMin {
			return false
		}
	}
	return true
}

// ShapeOf renders the canonical contract-shape string the bundle cache
// keys specialized variants by.
func ShapeOf(c bounds.Contract) string {
	if c == (bounds.Contract{}) {
		return "empty"
	}
	d := contractDims(c)
	if c.CountParam < 0 {
		return fmt.Sprintf("nocount:b%dx%d:g%dx%d", d.bdx, d.bdy, d.gdx, d.gdy)
	}
	return fmt.Sprintf("p%d:n[%d,%d]:pbc%d:b%dx%d:g%dx%d",
		c.CountParam, c.CountMin, c.CountMax, c.PtrBytesPerCount, d.bdx, d.bdy, d.gdx, d.gdy)
}

// ShapeKeys lists the keys ApplyShape accepts, in display order (the
// CLI layer validates the flag syntax against this set).
func ShapeKeys() []string {
	return []string{"n", "nmin", "nmax", "count", "pbc", "block", "grid", "blocky", "gridy"}
}

// ApplyShape overlays a "key=value,..." contract-shape flag onto a
// base contract: n pins the count range to one value, nmin/nmax bound
// it, count renames the count parameter (-1 for none), pbc sets the
// per-count byte guarantee, block/grid/blocky/gridy the launch
// geometry.
func ApplyShape(base bounds.Contract, spec string) (bounds.Contract, error) {
	c := base
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	known := ShapeKeys()
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("peval: contract shape: %q is not key=value", part)
		}
		val, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return c, fmt.Errorf("peval: contract shape: %s: %q is not an integer", k, v)
		}
		switch strings.TrimSpace(k) {
		case "n":
			c.CountMin, c.CountMax = val, val
		case "nmin":
			c.CountMin = val
		case "nmax":
			c.CountMax = val
		case "count":
			c.CountParam = int(val)
		case "pbc":
			c.PtrBytesPerCount = val
		case "block":
			c.BlockDimX = val
		case "grid":
			c.GridDimX = val
		case "blocky":
			c.BlockDimY = val
		case "gridy":
			c.GridDimY = val
		default:
			return c, fmt.Errorf("peval: contract shape: unknown key %q (want one of %s)",
				k, strings.Join(known, ", "))
		}
	}
	if c.CountParam >= 0 && (c.CountMin < 1 || c.CountMax < c.CountMin) {
		return c, fmt.Errorf("peval: contract shape: count range [%d, %d] invalid", c.CountMin, c.CountMax)
	}
	return c, nil
}
