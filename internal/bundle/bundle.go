// Package bundle is the signed compiled-artifact format: a
// content-addressed container of compiled isa.Programs, their source
// maps, launch contracts, and the static-analysis certificates (lint,
// elide audit, race, and — for specialized entries — the
// specialization audit) that the compile produced, sealed under an
// ed25519 signature. It is what turns the workload corpus into a
// deployable artifact stream: lmi-compile -bundle builds and signs
// one, and the serving fleet verifies and hot-reloads it without ever
// executing a program whose chain of trust does not check out.
//
// The encoding is canonical and deterministic: entries are sorted by
// (name, mechanism), every digest is computed over the compact JSON of
// a fixed-field-order struct, and ed25519 signatures are deterministic
// (RFC 8032) — so the same corpus compiled under any -jobs value
// produces byte-identical bundle files and the check gate can compare
// them with cmp.
//
// Only the canonical bytes are accepted. The codec (codec.go) writes
// what encoding/json's Marshal writes for these types, and Decode
// refuses, as ReasonMalformed, any file that is not exactly the
// encoding of the bundle it decodes to: added whitespace, reordered,
// unknown or repeated keys, non-canonical numbers or string escapes. A
// file whose bytes differ from the signed bytes does not verify even
// when its values are the signed ones.
//
// Digest tree:
//
//	code digest   = sha256 over the entry with certificates and Digest cleared
//	                (name, mechanism, mode, code words, program metadata,
//	                source map, contract, and — when present — the
//	                specialization payload: residual code, concrete
//	                contract, specialization certificate) — what the
//	                certificates certify
//	entry digest  = sha256 over the entry with Digest cleared (certs included)
//	bundle digest = sha256 over {version, public key, entry digests}
//	signature     = ed25519 over the bundle digest hex
//
// A certificate therefore binds to the exact code it was derived from
// (CodeDigest), the entry digest binds certificates to the entry, and
// the bundle digest binds the entry set to the signing key — replaying
// an older certificate against newer code breaks the CodeDigest link
// even when the attacker holds the signing key and reseals everything
// else consistently.
package bundle

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"

	"lmi/internal/bounds"
	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/peval"
)

// Version is the current bundle format version.
const Version = 1

// LintCert certifies the static microcode-contract lint pass: zero
// diagnostics over the code identified by CodeDigest.
type LintCert struct {
	// CodeDigest is the code digest of the entry the pass ran over.
	CodeDigest string `json:"code_digest"`
	// Diags is the diagnostic count the pass produced (0 for a
	// shippable entry; Verify re-runs the pass and requires agreement).
	Diags int `json:"diags"`
}

// AuditCert certifies the elide soundness audit: every planted E bit
// re-derived by the linter's independent value analysis.
type AuditCert struct {
	CodeDigest string `json:"code_digest"`
	Diags      int    `json:"diags"`
	// Elided is the program's E-hinted access count at audit time.
	Elided int `json:"elided"`
}

// RaceCert certifies the static shared-memory race and
// barrier-divergence analysis.
type RaceCert struct {
	CodeDigest string `json:"code_digest"`
	Diags      int    `json:"diags"`
	// SharedAccesses, PairsTested, and Phases pin the analysis extent:
	// a replayed certificate that saw a smaller program disagrees here
	// even before the CodeDigest check.
	SharedAccesses int `json:"shared_accesses"`
	PairsTested    int `json:"pairs_tested"`
	Phases         int `json:"phases"`
}

// SpecCert certifies the specialization audit: the residual program
// (SpecCode) is a sound specialization of the entry's general program
// under the concrete contract, every transform in the specialization
// certificate independently re-derived by lint.SpecializeAudit.
type SpecCert struct {
	// CodeDigest binds to the code digest of the entry the audit ran
	// over — which covers the specialization payload, so a replayed
	// residual or certificate breaks the binding.
	CodeDigest string `json:"code_digest"`
	Diags      int    `json:"diags"`
	// Shape is the canonical contract-shape key (the fastsim cache key
	// component); Transforms and ResidualInstrs pin the certificate
	// extent against the payload.
	Shape          string `json:"shape"`
	Transforms     int    `json:"transforms"`
	ResidualInstrs int    `json:"residual_instrs"`
}

// ProgramMeta carries the isa.Program fields outside the instruction
// stream (the instruction stream itself travels as microcode words).
type ProgramMeta struct {
	FrameSize     uint32            `json:"frame_size"`
	SharedSize    uint32            `json:"shared_size"`
	NumRegs       int               `json:"num_regs"`
	NumParams     int               `json:"num_params"`
	ParamPtrs     []bool            `json:"param_ptrs,omitempty"`
	StackPtrConst int               `json:"stack_ptr_const"`
	ParamBase     int               `json:"param_base"`
	StackBuffers  []isa.StackBuffer `json:"stack_buffers,omitempty"`
}

// Entry is one compiled program plus everything needed to re-verify
// its chain of trust.
type Entry struct {
	// Name is the workload the program serves; Mechanism is the serving
	// mechanism key (the request vocabulary: "lmi").
	Name      string `json:"name"`
	Mechanism string `json:"mechanism"`
	// Mode is the compile mode ("lmi"); Elided records whether the
	// program was compiled with static extent-check elision.
	Mode   string `json:"mode"`
	Elided bool   `json:"elided,omitempty"`
	// Code is the program as 128-bit microcode words, 32 hex characters
	// each (hi word then lo word).
	Code []string    `json:"code"`
	Meta ProgramMeta `json:"meta"`
	// SourceMap is the PC-indexed compiler source map; Verify feeds it
	// back into lint.CheckWithSource and the race analyzer.
	SourceMap []compiler.SourceLoc `json:"source_map"`
	// Contract is the launch contract the certificates hold under.
	Contract bounds.Contract `json:"contract"`
	// The specialization payload: a contract-specialized residual of
	// the program above, present only for entries built with
	// BuildSpec.Specialize. The four spec fields are all-or-none — a
	// partial record is a typed rejection. They ride inside the code
	// digest (unlike the certificate attestations below), so splicing
	// an older residual under newer code breaks every certificate
	// binding at once. Entries without a payload marshal identically
	// to the pre-specialization format: old digests are unchanged.
	SpecCode        []string           `json:"spec_code,omitempty"`
	SpecContract    *bounds.Contract   `json:"spec_contract,omitempty"`
	SpecCertificate *peval.Certificate `json:"spec_certificate,omitempty"`
	// The three mandatory certificates plus the specialization audit
	// (mandatory exactly when the payload is present); a stripped
	// certificate is a typed rejection, not a downgrade.
	Lint  *LintCert  `json:"lint_cert,omitempty"`
	Audit *AuditCert `json:"audit_cert,omitempty"`
	Race  *RaceCert  `json:"race_cert,omitempty"`
	Spec  *SpecCert  `json:"spec_cert,omitempty"`
	// Digest is the entry digest (sha256 over the entry with this field
	// cleared).
	Digest string `json:"digest"`
}

// Key is the serving lookup key: workload/mechanism — the same shape
// as a request's breaker cell.
func (e *Entry) Key() string { return e.Name + "/" + e.Mechanism }

// Bundle is the signed artifact.
type Bundle struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
	// PublicKey is the hex ed25519 public key of the signer; Digest is
	// the bundle digest; Signature is the hex ed25519 signature over
	// the digest hex.
	PublicKey string `json:"public_key"`
	Digest    string `json:"digest"`
	Signature string `json:"signature"`
}

// CodeDigest computes the digest the certificates bind to: the entry
// with its certificate attestations and Digest cleared — the code,
// metadata, source map, contract, and (when present) the
// specialization payload, exactly what the static passes consumed.
func CodeDigest(e *Entry) (string, error) {
	_, cd, err := (&codec{}).digests(e)
	return cd, err
}

// EncodeWords renders a program's instruction stream as canonical
// microcode word hex (hi word then lo word, 32 characters). The words
// are cut from one string.
func EncodeWords(p *isa.Program) ([]string, error) {
	words, err := isa.EncodeProgram(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 32*len(words))
	for _, w := range words {
		for _, half := range [2]uint64{w.Hi, w.Lo} {
			for shift := 60; shift >= 0; shift -= 4 {
				buf = append(buf, hexDigits[half>>shift&0xf])
			}
		}
	}
	all := string(buf)
	out := make([]string, len(words))
	for i := range out {
		out[i] = all[32*i : 32*i+32]
	}
	return out, nil
}

// DecodeProgram reconstructs the isa.Program an entry carries and
// validates it.
func (e *Entry) DecodeProgram() (*isa.Program, error) {
	return e.decodeWords(e.Code)
}

// DecodeSpecProgram reconstructs the specialized residual program from
// the entry's specialization payload. The residual shares the general
// program's metadata (frame, shared, registers, parameters) — the
// specializer only rewrites the instruction stream.
func (e *Entry) DecodeSpecProgram() (*isa.Program, error) {
	if len(e.SpecCode) == 0 {
		return nil, fmt.Errorf("bundle: %s: no specialization payload", e.Key())
	}
	return e.decodeWords(e.SpecCode)
}

// decodeWords rebuilds a program from microcode word hex under the
// entry's metadata and validates it. The program's name is a copy, so
// a kept program does not pin the decoded bundle's input.
func (e *Entry) decodeWords(code []string) (*isa.Program, error) {
	words := make([]isa.Word, len(code))
	for i, s := range code {
		if len(s) != 32 {
			return nil, fmt.Errorf("bundle: %s: word %d: %d hex chars, want 32", e.Key(), i, len(s))
		}
		var half [2]uint64
		for j := 0; j < 32; j++ {
			d, ok := hexNibble(s[j])
			if !ok {
				return nil, fmt.Errorf("bundle: %s: word %d: %w", e.Key(), i, hex.InvalidByteError(s[j]))
			}
			half[j/16] = half[j/16]<<4 | d
		}
		words[i] = isa.Word{Hi: half[0], Lo: half[1]}
	}
	instrs, err := isa.DecodeProgram(words)
	if err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", e.Key(), err)
	}
	p := &isa.Program{
		Name:          strings.Clone(e.Name),
		Instrs:        instrs,
		FrameSize:     e.Meta.FrameSize,
		SharedSize:    e.Meta.SharedSize,
		NumRegs:       e.Meta.NumRegs,
		NumParams:     e.Meta.NumParams,
		ParamPtrs:     e.Meta.ParamPtrs,
		StackPtrConst: e.Meta.StackPtrConst,
		ParamBase:     e.Meta.ParamBase,
		StackBuffers:  e.Meta.StackBuffers,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", e.Key(), err)
	}
	return p, nil
}

// hexNibble decodes one hex digit of either case, as encoding/hex does.
func hexNibble(c byte) (uint64, bool) {
	switch {
	case '0' <= c && c <= '9':
		return uint64(c - '0'), true
	case 'a' <= c && c <= 'f':
		return uint64(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return uint64(c - 'A' + 10), true
	}
	return 0, false
}

// entryLess is the canonical entry order.
func entryLess(a, b *Entry) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Mechanism < b.Mechanism
}

// Clone deep-copies the bundle through the codec, Decode(Encode(b)),
// so tamper helpers can mutate the copy. It returns nil for a bundle
// holding a string that is not valid UTF-8, which no canonical
// encoding carries.
func (b *Bundle) Clone() *Bundle {
	var c *Bundle
	err := withEncoding(b, func(raw []byte) (err error) {
		c, err = decode(string(raw))
		return err
	})
	if err != nil {
		return nil
	}
	return c
}

// Encode writes the canonical compact JSON form (one line plus a
// trailing newline). Struct field order is fixed and entries are
// sorted, so the bytes are a pure function of the content and key.
func (b *Bundle) Encode(w io.Writer) error {
	return withEncoding(b, func(raw []byte) error {
		_, err := w.Write(raw)
		return err
	})
}

// WriteFile encodes the bundle to path.
func (b *Bundle) WriteFile(path string) error {
	return withEncoding(b, func(raw []byte) error { return os.WriteFile(path, raw, 0o644) })
}

// Decode reads a canonical bundle from r. Decode errors are typed
// Malformed rejections: an unparseable or non-canonical bundle is an
// artifact to refuse, not an I/O detail. A reader that reports its
// unread length (bytes.Reader, strings.Reader, bytes.Buffer) is read
// into one string of that size.
func Decode(r io.Reader) (*Bundle, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("bundle: read: %w", err)
	}
	return decode(sb.String())
}

// ReadFile decodes the canonical bundle at path.
func ReadFile(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return decode(string(raw))
}
