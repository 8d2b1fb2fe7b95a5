package bundle

import (
	"context"
	"fmt"

	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/lint"
	"lmi/internal/peval"
	"lmi/internal/race"
	"lmi/internal/runner"
	"lmi/internal/workloads"
)

// BuildSpec selects one workload compile for a bundle entry.
type BuildSpec struct {
	// Workload is the Table V benchmark name.
	Workload string
	// Elide compiles with static extent-check elision under the
	// workload's launch contract.
	Elide bool
	// Specialize additionally partially evaluates the elided program
	// against the workload's concrete contract and ships the residual,
	// its contract, and its audited specialization certificate
	// alongside the general program. Requires Elide: the specializer's
	// general program is the elided compile.
	Specialize bool
}

// Build compiles the given workloads in LMI mode, runs the static
// passes (lint, elide audit, race, and the specialization audit for
// specialized entries), and assembles the (unsealed) bundle. Compilation fans out
// over jobs workers through the deterministic runner pool; entries are
// produced in a canonical order regardless, so Build(specs, 1) and
// Build(specs, 4) seal to byte-identical bundles.
//
// A workload whose static passes are not clean cannot be bundled: the
// certificates certify absence of diagnostics, and Build refuses to
// fabricate a certificate for a violating program.
func Build(specs []BuildSpec, jobs int) (*Bundle, error) {
	entries := make([]Entry, len(specs))
	errs := runner.ForEach(context.Background(), len(specs), jobs, func(i int) error {
		e, err := buildEntry(specs[i])
		if err != nil {
			return err
		}
		entries[i] = *e
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Bundle{Version: Version, Entries: entries}, nil
}

// buildEntry compiles one workload and fills in its certificates.
func buildEntry(bs BuildSpec) (*Entry, error) {
	s := workloads.ByName(bs.Workload)
	if s == nil {
		return nil, fmt.Errorf("bundle: unknown workload %q", bs.Workload)
	}
	f, err := s.Kernel()
	if err != nil {
		return nil, err
	}
	contract := s.Contract()
	// A :spec entry ships the specializer's general program: that is
	// the elided compile, and the certificate's starting point.
	var (
		p       *isa.Program
		srcMap  []compiler.SourceLoc
		specRes *peval.Result
	)
	switch {
	case bs.Specialize:
		if !bs.Elide {
			return nil, fmt.Errorf("bundle: %s: Specialize requires Elide (the specializer's general program is the elided compile)", bs.Workload)
		}
		specRes, err = peval.Specialize(f, contract, s.ConcreteContract(), peval.Options{})
		if err != nil {
			return nil, fmt.Errorf("bundle: %s: specialize: %w", bs.Workload, err)
		}
		p, srcMap = specRes.Original, specRes.SourceMap
	case bs.Elide:
		p, srcMap, _, err = compiler.CompileElidedWithSourceMap(f, contract)
	default:
		p, srcMap, err = compiler.CompileWithSourceMap(f, compiler.ModeLMI)
	}
	if err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", bs.Workload, err)
	}
	code, err := EncodeWords(p)
	if err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", bs.Workload, err)
	}
	e := &Entry{
		Name:      bs.Workload,
		Mechanism: "lmi",
		Mode:      "lmi",
		Elided:    bs.Elide,
		Code:      code,
		Meta: ProgramMeta{
			FrameSize:     p.FrameSize,
			SharedSize:    p.SharedSize,
			NumRegs:       p.NumRegs,
			NumParams:     p.NumParams,
			ParamPtrs:     p.ParamPtrs,
			StackPtrConst: p.StackPtrConst,
			ParamBase:     p.ParamBase,
			StackBuffers:  p.StackBuffers,
		},
		SourceMap: srcMap,
		Contract:  contract,
	}

	// The specialization payload goes in before the code digest is
	// taken: the residual and its certificate are part of what every
	// certificate binds to.
	if specRes != nil {
		specCode, err := EncodeWords(specRes.Residual)
		if err != nil {
			return nil, fmt.Errorf("bundle: %s: encode residual: %w", bs.Workload, err)
		}
		sc := specRes.Cert.Contract
		e.SpecCode = specCode
		e.SpecContract = &sc
		e.SpecCertificate = specRes.Cert
	}

	cd, err := CodeDigest(e)
	if err != nil {
		return nil, err
	}

	// Run the passes the certificates will certify. Build is the honest
	// signer: a diagnostic here is a build failure, never a certificate.
	if diags := lint.CheckWithSource(p, compiler.ModeLMI, srcMap); len(diags) > 0 {
		return nil, fmt.Errorf("bundle: %s: lint: %d diagnostics: %s", bs.Workload, len(diags), diags[0])
	}
	e.Lint = &LintCert{CodeDigest: cd, Diags: 0}
	if diags := lint.ElideAudit(p, contract); len(diags) > 0 {
		return nil, fmt.Errorf("bundle: %s: elide audit: %d diagnostics: %s", bs.Workload, len(diags), diags[0])
	}
	e.Audit = &AuditCert{CodeDigest: cd, Diags: 0, Elided: p.CountElided()}
	rr := race.Analyze(p, contract, srcMap)
	if !rr.Clean() || !rr.Converged {
		n := len(rr.Diags)
		return nil, fmt.Errorf("bundle: %s: race analysis: %d diagnostics (converged=%v)", bs.Workload, n, rr.Converged)
	}
	e.Race = &RaceCert{
		CodeDigest:     cd,
		Diags:          0,
		SharedAccesses: rr.SharedAccesses,
		PairsTested:    rr.PairsTested,
		Phases:         rr.Phases,
	}
	if specRes != nil {
		if diags := lint.SpecializeAudit(p, specRes.Residual, specRes.Cert, *e.SpecContract); len(diags) > 0 {
			return nil, fmt.Errorf("bundle: %s: specialize audit: %d diagnostics: %s", bs.Workload, len(diags), diags[0])
		}
		e.Spec = &SpecCert{
			CodeDigest:     cd,
			Diags:          0,
			Shape:          specRes.Cert.Shape,
			Transforms:     len(specRes.Cert.Transforms),
			ResidualInstrs: len(specRes.Residual.Instrs),
		}
	}
	return e, nil
}
