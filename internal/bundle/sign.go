package bundle

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Key material travels as 32-byte hex: the ed25519 seed for signing,
// the public key for verification. A value of the form @path reads the
// hex from a file; the empty string falls back to the environment
// (LMI_BUNDLE_KEY / LMI_BUNDLE_PUB), so CI can keep the key out of
// argv.
const (
	// EnvSigningKey is the environment fallback for the signing seed.
	EnvSigningKey = "LMI_BUNDLE_KEY"
	// EnvPublicKey is the environment fallback for the trusted
	// verification key.
	EnvPublicKey = "LMI_BUNDLE_PUB"
)

// resolveKeyHex turns a flag value into hex key material: literal hex,
// @file indirection, or the named environment variable when empty.
func resolveKeyHex(v, env string) (string, error) {
	if v == "" {
		v = os.Getenv(env)
		if v == "" {
			return "", fmt.Errorf("bundle: no key: pass hex, @file, or set %s", env)
		}
	}
	if strings.HasPrefix(v, "@") {
		raw, err := os.ReadFile(v[1:])
		if err != nil {
			return "", fmt.Errorf("bundle: key file: %w", err)
		}
		v = strings.TrimSpace(string(raw))
	}
	return v, nil
}

// ParseSigningKey resolves a signing-key reference (hex seed, @file,
// or "" for $LMI_BUNDLE_KEY) into an ed25519 private key.
func ParseSigningKey(v string) (ed25519.PrivateKey, error) {
	h, err := resolveKeyHex(v, EnvSigningKey)
	if err != nil {
		return nil, err
	}
	seed, err := hex.DecodeString(h)
	if err != nil || len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("bundle: signing key must be %d hex bytes (an ed25519 seed)", ed25519.SeedSize)
	}
	return ed25519.NewKeyFromSeed(seed), nil
}

// ParsePublicKey resolves a trusted-key reference (hex, @file, or ""
// for $LMI_BUNDLE_PUB) into an ed25519 public key.
func ParsePublicKey(v string) (ed25519.PublicKey, error) {
	h, err := resolveKeyHex(v, EnvPublicKey)
	if err != nil {
		return nil, err
	}
	pub, err := hex.DecodeString(h)
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bundle: public key must be %d hex bytes", ed25519.PublicKeySize)
	}
	return ed25519.PublicKey(pub), nil
}

// PublicHex renders a private key's public half as hex (what -bundle
// prints so the serving side knows what to trust).
func PublicHex(priv ed25519.PrivateKey) string {
	return hex.EncodeToString(priv.Public().(ed25519.PublicKey))
}

// Seal canonicalises and signs the bundle in place: sort entries,
// recompute every entry digest, recompute the bundle digest over the
// signer's public key, and sign it. ed25519 signatures are
// deterministic, so sealing the same content with the same key always
// produces the same bytes.
func (b *Bundle) Seal(priv ed25519.PrivateKey) error {
	if len(b.Entries) == 0 {
		return fmt.Errorf("bundle: seal: no entries")
	}
	b.Version = Version
	sort.Slice(b.Entries, func(i, j int) bool { return entryLess(&b.Entries[i], &b.Entries[j]) })
	digests := make([]string, len(b.Entries))
	c := &codec{}
	for i := range b.Entries {
		d, _, err := c.digests(&b.Entries[i])
		if err != nil {
			return err
		}
		b.Entries[i].Digest = d
		digests[i] = d
	}
	b.PublicKey = PublicHex(priv)
	bd := bundleDigest(b.Version, b.PublicKey, digests)
	b.Digest = bd
	b.Signature = hex.EncodeToString(ed25519.Sign(priv, []byte(bd)))
	return nil
}
