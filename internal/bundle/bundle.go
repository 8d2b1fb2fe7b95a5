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
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

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

// sha256hex is the one digest primitive every level uses.
func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CodeDigest computes the digest the certificates bind to: the entry
// with its certificate attestations and Digest cleared — the code,
// metadata, source map, contract, and (when present) the
// specialization payload, exactly what the static passes consumed.
func CodeDigest(e *Entry) (string, error) {
	c := *e
	c.Lint, c.Audit, c.Race, c.Spec = nil, nil, nil, nil
	c.Digest = ""
	raw, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("bundle: code digest of %s: %w", e.Key(), err)
	}
	return sha256hex(raw), nil
}

// EntryDigest computes the entry digest: the entry with only the
// Digest field cleared, certificates included.
func EntryDigest(e *Entry) (string, error) {
	c := *e
	c.Digest = ""
	raw, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("bundle: entry digest of %s: %w", e.Key(), err)
	}
	return sha256hex(raw), nil
}

// bundleDigest computes the bundle digest over the version, signer,
// and the sorted entry digest list. Entry content is covered
// transitively through the entry digests.
func bundleDigest(version int, publicKey string, entryDigests []string) (string, error) {
	raw, err := json.Marshal(struct {
		Version   int      `json:"version"`
		PublicKey string   `json:"public_key"`
		Entries   []string `json:"entries"`
	}{version, publicKey, entryDigests})
	if err != nil {
		return "", fmt.Errorf("bundle: bundle digest: %w", err)
	}
	return sha256hex(raw), nil
}

// EncodeWords renders a program's instruction stream as canonical
// microcode word hex (hi word then lo word, 32 characters).
func EncodeWords(p *isa.Program) ([]string, error) {
	words, err := isa.EncodeProgram(p)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = fmt.Sprintf("%016x%016x", w.Hi, w.Lo)
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
// entry's metadata and validates it.
func (e *Entry) decodeWords(code []string) (*isa.Program, error) {
	words := make([]isa.Word, len(code))
	for i, s := range code {
		if len(s) != 32 {
			return nil, fmt.Errorf("bundle: %s: word %d: %d hex chars, want 32", e.Key(), i, len(s))
		}
		raw, err := hex.DecodeString(s)
		if err != nil {
			return nil, fmt.Errorf("bundle: %s: word %d: %w", e.Key(), i, err)
		}
		var hi, lo uint64
		for b := 0; b < 8; b++ {
			hi = hi<<8 | uint64(raw[b])
			lo = lo<<8 | uint64(raw[8+b])
		}
		words[i] = isa.Word{Lo: lo, Hi: hi}
	}
	instrs, err := isa.DecodeProgram(words)
	if err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", e.Key(), err)
	}
	p := &isa.Program{
		Name:          e.Name,
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

// entryLess is the canonical entry order.
func entryLess(a, b *Entry) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Mechanism < b.Mechanism
}

// Clone deep-copies the bundle (tamper helpers mutate the copy).
func (b *Bundle) Clone() *Bundle {
	c := *b
	c.Entries = make([]Entry, len(b.Entries))
	for i := range b.Entries {
		e := b.Entries[i]
		e.Code = append([]string(nil), e.Code...)
		e.SourceMap = append([]compiler.SourceLoc(nil), e.SourceMap...)
		e.Meta.ParamPtrs = append([]bool(nil), e.Meta.ParamPtrs...)
		e.Meta.StackBuffers = append([]isa.StackBuffer(nil), e.Meta.StackBuffers...)
		e.SpecCode = append([]string(nil), e.SpecCode...)
		if e.SpecContract != nil {
			sc := *e.SpecContract
			e.SpecContract = &sc
		}
		if e.SpecCertificate != nil {
			cert := *e.SpecCertificate
			cert.Transforms = append([]peval.Transform(nil), cert.Transforms...)
			for i := range cert.Transforms {
				t := &cert.Transforms[i]
				t.Drops = append([]peval.Drop(nil), t.Drops...)
				if t.Unroll != nil {
					u := *t.Unroll
					t.Unroll = &u
				}
			}
			cert.Provenance = append([]int(nil), cert.Provenance...)
			e.SpecCertificate = &cert
		}
		if e.Lint != nil {
			l := *e.Lint
			e.Lint = &l
		}
		if e.Audit != nil {
			a := *e.Audit
			e.Audit = &a
		}
		if e.Race != nil {
			r := *e.Race
			e.Race = &r
		}
		if e.Spec != nil {
			s := *e.Spec
			e.Spec = &s
		}
		c.Entries[i] = e
	}
	return &c
}

// Encode writes the canonical compact JSON form (one line plus a
// trailing newline). Struct field order is fixed and entries are
// sorted, so the bytes are a pure function of the content and key.
func (b *Bundle) Encode(w io.Writer) error {
	raw, err := json.Marshal(b)
	if err != nil {
		return fmt.Errorf("bundle: encode: %w", err)
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// WriteFile encodes the bundle to path.
func (b *Bundle) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Decode reads a bundle from r. Decode errors are typed Malformed
// rejections: an unparseable bundle is an artifact to refuse, not an
// I/O detail. A reader that reports its unread length (bytes.Reader,
// strings.Reader, bytes.Buffer) is read into one buffer of that size.
func Decode(r io.Reader) (*Bundle, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// ReadFrom grows the buffer unless bytes.MinRead bytes are free,
		// so the read that meets EOF needs that much room past the data.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("bundle: read: %w", err)
	}
	return unmarshal(buf.Bytes())
}

// ReadFile decodes the bundle at path, read into one buffer of the
// size the file reports.
func ReadFile(path string) (*Bundle, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	return unmarshal(raw)
}

// unmarshal decodes the whole of raw, so trailing data is refused too.
func unmarshal(raw []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, &RejectError{Reason: ReasonMalformed, Detail: err.Error()}
	}
	return &b, nil
}
