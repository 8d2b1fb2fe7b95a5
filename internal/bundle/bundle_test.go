package bundle

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/isa"
)

// Deterministic test keys: the signer and an attacker.
var (
	testSeed  = bytes.Repeat([]byte{0x42}, ed25519.SeedSize)
	wrongSeed = bytes.Repeat([]byte{0x66}, ed25519.SeedSize)
	testKey   = ed25519.NewKeyFromSeed(testSeed)
	wrongKey  = ed25519.NewKeyFromSeed(wrongSeed)
)

var testSpecs = []BuildSpec{
	{Workload: "nn"},
	{Workload: "needle", Elide: true},
	{Workload: "backprop", Elide: true},
}

// buildOnce compiles the shared test bundle a single time; tests clone
// it before mutating.
var buildOnce = sync.OnceValues(func() (*Bundle, error) {
	b, err := Build(testSpecs, 2)
	if err != nil {
		return nil, err
	}
	if err := b.Seal(testKey); err != nil {
		return nil, err
	}
	return b, nil
})

func sealedBundle(t *testing.T) *Bundle {
	t.Helper()
	b, err := buildOnce()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return b.Clone()
}

func trusted() ed25519.PublicKey { return testKey.Public().(ed25519.PublicKey) }

func encodeBytes(t testing.TB, b *Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestBuildDeterministic: the same corpus compiled at any -jobs seals
// to byte-identical bundles — the property the check.sh gate cmp's.
func TestBuildDeterministic(t *testing.T) {
	var encoded [][]byte
	for _, jobs := range []int{1, 4} {
		b, err := Build(testSpecs, jobs)
		if err != nil {
			t.Fatalf("build jobs=%d: %v", jobs, err)
		}
		if err := b.Seal(testKey); err != nil {
			t.Fatalf("seal jobs=%d: %v", jobs, err)
		}
		encoded = append(encoded, encodeBytes(t, b))
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Fatalf("bundle bytes differ between -jobs 1 and -jobs 4")
	}
}

// TestSealCanonicalOrder: Seal sorts entries, so build order does not
// leak into the artifact.
func TestSealCanonicalOrder(t *testing.T) {
	a, err := Build([]BuildSpec{{Workload: "nn"}, {Workload: "backprop", Elide: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build([]BuildSpec{{Workload: "backprop", Elide: true}, {Workload: "nn"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(testKey); err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(testKey); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, a), encodeBytes(t, b)) {
		t.Fatalf("build order leaked into sealed bytes")
	}
}

// TestRoundTripVerify: write, read back, verify; the verified view
// serves the right programs.
func TestRoundTripVerify(t *testing.T) {
	b := sealedBundle(t)
	path := filepath.Join(t.TempDir(), "b.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatalf("write: %v", err)
	}
	rb, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	v, err := Verify(rb, trusted())
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if v.Digest() != b.Digest {
		t.Fatalf("verified digest %s, sealed %s", v.Digest(), b.Digest)
	}
	if len(v.Entries()) != len(testSpecs) {
		t.Fatalf("%d verified entries, want %d", len(v.Entries()), len(testSpecs))
	}
	e, ok := v.Lookup("needle", "lmi")
	if !ok {
		t.Fatalf("needle/lmi not served")
	}
	if !e.Elided || e.Prog == nil || len(e.Prog.Instrs) == 0 {
		t.Fatalf("needle entry not servable: elided=%v prog=%v", e.Elided, e.Prog)
	}
	if _, ok := v.Lookup("needle", "memcheck"); ok {
		t.Fatalf("lookup invented an unbundled mechanism")
	}
}

// reason extracts the typed rejection reason, failing on untyped errors.
func reason(t *testing.T, err error) RejectReason {
	t.Helper()
	if err == nil {
		t.Fatalf("verification accepted a tampered bundle")
	}
	var re *RejectError
	if !errors.As(err, &re) {
		t.Fatalf("untyped rejection: %v", err)
	}
	if !strings.Contains(re.Error(), "bundle rejected ["+string(re.Reason)+"]") {
		t.Fatalf("rejection rendering lost the reason: %q", re.Error())
	}
	return re.Reason
}

// TestVerifyRejections pins every tamper class to its typed reason.
func TestVerifyRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey)
		want   RejectReason
	}{
		{"nil bundle", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			return nil, trusted()
		}, ReasonMalformed},
		{"wrong version", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Version = 99
			return b, trusted()
		}, ReasonMalformed},
		{"no entries", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries = nil
			return b, trusted()
		}, ReasonMalformed},
		{"unsorted entries", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0], b.Entries[1] = b.Entries[1], b.Entries[0]
			return b, trusted()
		}, ReasonMalformed},
		{"no trusted key", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			return b, nil
		}, ReasonWrongKey},
		{"wrong signer", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			if err := b.Seal(wrongKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonWrongKey},
		{"flipped code byte, no reseal", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			w := []byte(b.Entries[0].Code[0])
			if w[0] == '0' {
				w[0] = '1'
			} else {
				w[0] = '0'
			}
			b.Entries[0].Code[0] = string(w)
			return b, trusted()
		}, ReasonDigestMismatch},
		{"tampered signature", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			s := []byte(b.Signature)
			if s[0] == '0' {
				s[0] = '1'
			} else {
				s[0] = '0'
			}
			b.Signature = string(s)
			return b, trusted()
		}, ReasonBadSignature},
		{"stripped certificate, honest reseal", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0].Race = nil
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonCertMissing},
		{"stale certificate binding, honest reseal", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0].Audit.CodeDigest = strings.Repeat("ab", 32)
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonCertStale},
		{"certified lint count contradicts re-run", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0].Lint.Diags = 1
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonLintViolation},
		{"certified elide count contradicts program", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0].Audit.Elided += 7
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonCertStale},
		{"certified race extent contradicts re-run", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0].Race.PairsTested += 3
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonCertStale},
		{"understated register count, rebound and resealed", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			// MOV R5, #7 validates under NumRegs 1 (the register file is
			// at least 8 wide), lints clean and elides nothing, so the
			// static passes run on it: none may size its state from
			// NumRegs. The race certificate still describes the old
			// code's extent.
			rz := [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}
			e := &b.Entries[0]
			code, err := EncodeWords(&isa.Program{Instrs: []isa.Instr{
				{Op: isa.MOV, Dst: 5, Src: rz, Imm: 7, HasImm: true, Pred: isa.PT},
				{Op: isa.EXIT, Dst: isa.RZ, Src: rz, Pred: isa.PT},
			}})
			if err != nil {
				t.Fatal(err)
			}
			e.Code, e.Meta.NumRegs = code, 1
			e.SourceMap = make([]compiler.SourceLoc, len(code))
			e.Audit.Elided = 0
			cd, err := CodeDigest(e)
			if err != nil {
				t.Fatal(err)
			}
			e.Lint.CodeDigest, e.Audit.CodeDigest, e.Race.CodeDigest = cd, cd, cd
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonCertStale},
		{"truncated source map, honest reseal", func(t *testing.T, b *Bundle) (*Bundle, ed25519.PublicKey) {
			b.Entries[0].SourceMap = b.Entries[0].SourceMap[:1]
			if err := b.Seal(testKey); err != nil {
				t.Fatal(err)
			}
			return b, trusted()
		}, ReasonMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mb, key := tc.mutate(t, sealedBundle(t))
			v, err := Verify(mb, key)
			if v != nil {
				t.Fatalf("fail-closed violated: Verify returned a usable view with error %v", err)
			}
			if got := reason(t, err); got != tc.want {
				t.Fatalf("reason %q, want %q (err: %v)", got, tc.want, err)
			}
		})
	}
}

// TestDecodeMalformed: an unparseable artifact is a typed Malformed
// rejection, not an I/O error.
func TestDecodeMalformed(t *testing.T) {
	_, err := Decode(strings.NewReader("not json"))
	if got := reason(t, err); got != ReasonMalformed {
		t.Fatalf("reason %q, want malformed", got)
	}

	// Decode reads the whole input, so trailing data and a truncated
	// bundle are refused through every reader: one that reports its
	// length, one that does not, and a file through ReadFile.
	var buf bytes.Buffer
	if err := (&Bundle{Version: Version}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"trailing":  append(append([]byte(nil), valid...), `{}`...),
		"truncated": valid[:len(valid)/2],
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errLen := Decode(bytes.NewReader(data))
		_, errNoLen := Decode(io.MultiReader(bytes.NewReader(data)))
		_, errFile := ReadFile(path)
		for _, err := range []error{errLen, errNoLen, errFile} {
			if got := reason(t, err); got != ReasonMalformed {
				t.Fatalf("%s: reason %q, want malformed", name, got)
			}
		}
	}
}

// TestDecodeReaders: a bundle decodes the same through a reader that
// reports its length, one that does not, and ReadFile.
func TestDecodeReaders(t *testing.T) {
	b, err := Build([]BuildSpec{{Workload: "bfs", Elide: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Seal(testKey); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	fromLen, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromLen, want) || !reflect.DeepEqual(fromFile, want) {
		t.Fatal("the bundle decodes differently through different readers")
	}
}

// TestBuildRefusesUnknownWorkload: the honest signer refuses what it
// cannot certify.
func TestBuildRefusesUnknownWorkload(t *testing.T) {
	if _, err := Build([]BuildSpec{{Workload: "no-such-kernel"}}, 1); err == nil {
		t.Fatalf("built a bundle for an unknown workload")
	}
}

// TestKeyParsing: hex, @file indirection, and env fallback.
func TestKeyParsing(t *testing.T) {
	seedHex := strings.Repeat("42", 32)
	priv, err := ParseSigningKey(seedHex)
	if err != nil {
		t.Fatalf("hex seed: %v", err)
	}
	if !priv.Equal(testKey) {
		t.Fatalf("hex seed parsed to a different key")
	}
	path := filepath.Join(t.TempDir(), "key")
	if err := os.WriteFile(path, []byte(seedHex+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if priv, err = ParseSigningKey("@" + path); err != nil || !priv.Equal(testKey) {
		t.Fatalf("@file seed: %v", err)
	}
	t.Setenv(EnvSigningKey, seedHex)
	if priv, err = ParseSigningKey(""); err != nil || !priv.Equal(testKey) {
		t.Fatalf("env seed: %v", err)
	}
	t.Setenv(EnvSigningKey, "")
	if _, err := ParseSigningKey(""); err == nil {
		t.Fatalf("empty key accepted")
	}
	if _, err := ParseSigningKey("zz"); err == nil {
		t.Fatalf("non-hex key accepted")
	}
	pub, err := ParsePublicKey(PublicHex(testKey))
	if err != nil || !pub.Equal(trusted()) {
		t.Fatalf("public key round-trip: %v", err)
	}
}
