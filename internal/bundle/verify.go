package bundle

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/lint"
	"lmi/internal/peval"
	"lmi/internal/race"
)

// RejectReason is the typed, fail-closed verdict class of a bundle
// rejection. Every way a bundle can fail verification maps to exactly
// one reason; the chaos tamper kinds pin their expected reason and the
// reload soak asserts the mapping.
type RejectReason string

const (
	// ReasonMalformed: the artifact is structurally unusable — bad
	// JSON, wrong version, unsorted or duplicate entries, undecodable
	// microcode, an invalid program.
	ReasonMalformed RejectReason = "malformed"
	// ReasonWrongKey: the embedded signer is not the trusted key.
	ReasonWrongKey RejectReason = "wrong-key"
	// ReasonBadSignature: the signature does not verify over the
	// recomputed bundle digest.
	ReasonBadSignature RejectReason = "bad-signature"
	// ReasonDigestMismatch: a stored digest (bundle or entry) does not
	// match its recomputed value — content was altered after sealing.
	ReasonDigestMismatch RejectReason = "digest-mismatch"
	// ReasonCertMissing: an entry ships without one of the three
	// mandatory certificates.
	ReasonCertMissing RejectReason = "cert-missing"
	// ReasonCertStale: a certificate does not bind to the entry's code
	// (CodeDigest mismatch, or certified counts contradicting the
	// re-run) — the replayed-older-certificate attack.
	ReasonCertStale RejectReason = "cert-stale"
	// ReasonLintViolation / ReasonAuditViolation / ReasonRaceViolation /
	// ReasonSpecViolation: the re-run static pass found diagnostics the
	// certificate claims are absent.
	ReasonLintViolation  RejectReason = "lint-violation"
	ReasonAuditViolation RejectReason = "audit-violation"
	ReasonRaceViolation  RejectReason = "race-violation"
	ReasonSpecViolation  RejectReason = "spec-violation"
)

// RejectError is a typed, fail-closed bundle rejection.
type RejectError struct {
	Reason RejectReason
	// Entry is the offending entry's key ("" for bundle-level
	// rejections).
	Entry  string
	Detail string
}

func (e *RejectError) Error() string {
	if e.Entry != "" {
		return fmt.Sprintf("bundle rejected [%s] %s: %s", e.Reason, e.Entry, e.Detail)
	}
	return fmt.Sprintf("bundle rejected [%s]: %s", e.Reason, e.Detail)
}

// Reject builds a bundle-level rejection.
func Reject(reason RejectReason, format string, args ...any) *RejectError {
	return &RejectError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// RejectionReason extracts the typed reason from an error chain (""
// when err carries no RejectError).
func RejectionReason(err error) RejectReason {
	var re *RejectError
	if errors.As(err, &re) {
		return re.Reason
	}
	return ""
}

// VerifiedEntry is one entry of a verified bundle: the decoded,
// validated program plus its digests, ready to serve.
type VerifiedEntry struct {
	Name      string
	Mechanism string
	// Digest is the entry digest — the content-addressed compile-cache
	// key for the program.
	Digest string
	Elided bool
	Prog   *isa.Program
	// SpecProg / SpecContract / SpecShape carry the verified
	// specialization payload, when the entry ships one: the residual
	// program, the concrete contract it is valid under, and the
	// canonical contract-shape cache key. All nil/empty for a general
	// entry.
	SpecProg     *isa.Program
	SpecContract *bounds.Contract
	SpecShape    string
}

// Verified is an immutable, fully verified bundle: the serving layers
// swap a pointer to one of these atomically per shard.
type Verified struct {
	digest  string
	entries []*VerifiedEntry
	byKey   map[string]*VerifiedEntry
}

// Digest returns the bundle digest.
func (v *Verified) Digest() string { return v.digest }

// Entries lists the verified entries in canonical order.
func (v *Verified) Entries() []*VerifiedEntry { return v.entries }

// Lookup returns the entry serving (workload, mechanism), if any.
func (v *Verified) Lookup(workload, mechanism string) (*VerifiedEntry, bool) {
	e, ok := v.byKey[workload+"/"+mechanism]
	return e, ok
}

// Verify re-checks the whole chain of trust and returns the decoded,
// servable bundle. Any mismatch is a typed *RejectError; nothing about
// a rejected bundle is usable (fail closed). The checks run in
// trust-boundary order: structure, signer identity, signature, bundle
// digest, per-entry digests, program decode, certificate presence,
// certificate binding, and finally the static passes re-run from
// scratch against the embedded certificates (including the
// specialization audit for entries shipping a residual).
//
// trusted is the key the caller trusts; a bundle signed by any other
// key is ReasonWrongKey even when its signature is internally valid.
// A nil trusted key refuses every bundle — there is no
// trust-on-first-use mode.
func Verify(b *Bundle, trusted ed25519.PublicKey) (*Verified, error) {
	if b == nil {
		return nil, Reject(ReasonMalformed, "no bundle")
	}
	if b.Version != Version {
		return nil, Reject(ReasonMalformed, "version %d, want %d", b.Version, Version)
	}
	if len(b.Entries) == 0 {
		return nil, Reject(ReasonMalformed, "no entries")
	}
	for i := 1; i < len(b.Entries); i++ {
		prev, cur := &b.Entries[i-1], &b.Entries[i]
		if !entryLess(prev, cur) {
			return nil, Reject(ReasonMalformed, "entries not in canonical order at %d (%s >= %s)",
				i, prev.Key(), cur.Key())
		}
	}

	if len(trusted) != ed25519.PublicKeySize {
		return nil, Reject(ReasonWrongKey, "no trusted key configured")
	}
	pub, err := hex.DecodeString(b.PublicKey)
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return nil, Reject(ReasonMalformed, "bad embedded public key")
	}
	if !trusted.Equal(ed25519.PublicKey(pub)) {
		return nil, Reject(ReasonWrongKey, "signed by %s, trusted key is %s",
			b.PublicKey, hex.EncodeToString(trusted))
	}

	// Both digests of every entry come from one encoding of it.
	digests := make([]string, len(b.Entries))
	codeDigests := make([]string, len(b.Entries))
	c := &codec{}
	for i := range b.Entries {
		if digests[i], codeDigests[i], err = c.digests(&b.Entries[i]); err != nil {
			return nil, Reject(ReasonMalformed, "%v", err)
		}
	}
	bd := bundleDigest(b.Version, b.PublicKey, digests)
	if b.Digest != bd {
		return nil, Reject(ReasonDigestMismatch, "bundle digest %s, recomputed %s", b.Digest, bd)
	}
	sig, err := hex.DecodeString(b.Signature)
	if err != nil || len(sig) != ed25519.SignatureSize {
		return nil, Reject(ReasonBadSignature, "bad signature encoding")
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), []byte(bd), sig) {
		return nil, Reject(ReasonBadSignature, "signature does not verify over bundle digest")
	}

	v := &Verified{digest: bd, byKey: make(map[string]*VerifiedEntry, len(b.Entries))}
	for i := range b.Entries {
		e := &b.Entries[i]
		ve, err := verifyEntry(e, digests[i], codeDigests[i])
		if err != nil {
			return nil, err
		}
		if _, dup := v.byKey[e.Key()]; dup {
			return nil, Reject(ReasonMalformed, "duplicate entry %s", e.Key())
		}
		v.entries = append(v.entries, ve)
		v.byKey[e.Key()] = ve
	}
	return v, nil
}

// verifyEntry checks one entry: digest, decode, certificates, and the
// static passes re-run against them (lint, elide audit and race; the
// specialize audit is the fourth, for an entry with a specialization
// record).
func verifyEntry(e *Entry, recomputed, cd string) (*VerifiedEntry, error) {
	reject := func(reason RejectReason, format string, args ...any) error {
		return &RejectError{Reason: reason, Entry: e.Key(), Detail: fmt.Sprintf(format, args...)}
	}
	if e.Digest != recomputed {
		return nil, reject(ReasonDigestMismatch, "entry digest %s, recomputed %s", e.Digest, recomputed)
	}
	if e.Mode != "lmi" {
		return nil, reject(ReasonMalformed, "unsupported mode %q", e.Mode)
	}
	prog, err := e.DecodeProgram()
	if err != nil {
		return nil, reject(ReasonMalformed, "%v", err)
	}
	if len(e.SourceMap) != len(prog.Instrs) {
		return nil, reject(ReasonMalformed, "source map covers %d of %d instructions",
			len(e.SourceMap), len(prog.Instrs))
	}
	if e.Lint == nil || e.Audit == nil || e.Race == nil {
		missing := ""
		switch {
		case e.Lint == nil:
			missing = "lint"
		case e.Audit == nil:
			missing = "elide-audit"
		default:
			missing = "race"
		}
		return nil, reject(ReasonCertMissing, "no %s certificate", missing)
	}
	// The specialization record is all-or-none: residual code, concrete
	// contract, specialization certificate, and the audit attestation
	// travel together or not at all.
	hasSpec := len(e.SpecCode) > 0
	if spec2 := e.SpecContract != nil; hasSpec != spec2 ||
		hasSpec != (e.SpecCertificate != nil) || hasSpec != (e.Spec != nil) {
		return nil, reject(ReasonCertMissing,
			"partial specialization record (code=%v contract=%v certificate=%v attestation=%v)",
			hasSpec, e.SpecContract != nil, e.SpecCertificate != nil, e.Spec != nil)
	}
	for _, bind := range []struct {
		pass string
		got  string
	}{{"lint", e.Lint.CodeDigest}, {"elide-audit", e.Audit.CodeDigest}, {"race", e.Race.CodeDigest}} {
		if bind.got != cd {
			return nil, reject(ReasonCertStale,
				"%s certificate binds code %s, entry code is %s", bind.pass, bind.got, cd)
		}
	}
	if hasSpec && e.Spec.CodeDigest != cd {
		return nil, reject(ReasonCertStale,
			"spec certificate binds code %s, entry code is %s", e.Spec.CodeDigest, cd)
	}

	// Re-run the static chain of trust from scratch; the certificates
	// are claims, the passes are the authority.
	if diags := lint.CheckWithSource(prog, compiler.ModeLMI, e.SourceMap); len(diags) != e.Lint.Diags || len(diags) > 0 {
		return nil, reject(ReasonLintViolation, "lint re-run: %d diagnostics (certified %d): %v",
			len(diags), e.Lint.Diags, firstDiag(diags))
	}
	if diags := lint.ElideAudit(prog, e.Contract); len(diags) != e.Audit.Diags || len(diags) > 0 {
		return nil, reject(ReasonAuditViolation, "elide audit re-run: %d diagnostics (certified %d): %v",
			len(diags), e.Audit.Diags, firstDiag(diags))
	}
	if elided := prog.CountElided(); elided != e.Audit.Elided {
		return nil, reject(ReasonCertStale, "audit certificate counts %d elided accesses, program has %d",
			e.Audit.Elided, elided)
	}
	rr := race.Analyze(prog, e.Contract, e.SourceMap)
	if len(rr.Diags) != e.Race.Diags || !rr.Clean() {
		return nil, reject(ReasonRaceViolation, "race re-run: %d diagnostics (certified %d)",
			len(rr.Diags), e.Race.Diags)
	}
	if !rr.Converged {
		return nil, reject(ReasonRaceViolation, "race analysis did not converge")
	}
	if rr.SharedAccesses != e.Race.SharedAccesses || rr.PairsTested != e.Race.PairsTested || rr.Phases != e.Race.Phases {
		return nil, reject(ReasonCertStale,
			"race certificate extent (%d accesses, %d pairs, %d phases) contradicts re-run (%d, %d, %d)",
			e.Race.SharedAccesses, e.Race.PairsTested, e.Race.Phases,
			rr.SharedAccesses, rr.PairsTested, rr.Phases)
	}

	// The kept strings are copies, so a served entry does not pin the
	// decoded bundle's input, from which the decoder cut them.
	ve := &VerifiedEntry{
		Name: prog.Name, Mechanism: strings.Clone(e.Mechanism), Digest: strings.Clone(e.Digest),
		Elided: e.Elided, Prog: prog,
	}
	if hasSpec {
		specProg, err := e.DecodeSpecProgram()
		if err != nil {
			return nil, reject(ReasonMalformed, "%v", err)
		}
		if !peval.Covers(e.Contract, *e.SpecContract) {
			return nil, reject(ReasonCertStale,
				"specialization contract is not a specialization of the entry contract")
		}
		if shape := peval.ShapeOf(*e.SpecContract); e.Spec.Shape != shape {
			return nil, reject(ReasonCertStale,
				"spec certificate shape %q, contract shape is %q", e.Spec.Shape, shape)
		}
		if e.Spec.Transforms != len(e.SpecCertificate.Transforms) {
			return nil, reject(ReasonCertStale,
				"spec certificate counts %d transforms, certificate log has %d",
				e.Spec.Transforms, len(e.SpecCertificate.Transforms))
		}
		if e.Spec.ResidualInstrs != len(specProg.Instrs) {
			return nil, reject(ReasonCertStale,
				"spec certificate counts %d residual instructions, residual has %d",
				e.Spec.ResidualInstrs, len(specProg.Instrs))
		}
		if diags := lint.SpecializeAudit(prog, specProg, e.SpecCertificate, *e.SpecContract); len(diags) != e.Spec.Diags || len(diags) > 0 {
			return nil, reject(ReasonSpecViolation, "specialize audit re-run: %d diagnostics (certified %d): %v",
				len(diags), e.Spec.Diags, firstDiag(diags))
		}
		sc := *e.SpecContract
		ve.SpecProg, ve.SpecContract, ve.SpecShape = specProg, &sc, strings.Clone(e.Spec.Shape)
	}
	return ve, nil
}

// firstDiag renders the first diagnostic for rejection detail.
func firstDiag(diags []lint.Diag) string {
	if len(diags) == 0 {
		return "none"
	}
	return diags[0].String()
}
