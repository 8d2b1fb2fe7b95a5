package serve_test

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lmi/internal/bundle"
	"lmi/internal/fleet"
)

var (
	reloadTestKey    = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x21}, ed25519.SeedSize))
	reloadBundleOnce = sync.OnceValues(func() (*bundle.Bundle, error) {
		b, err := bundle.Build([]bundle.BuildSpec{{Workload: "nn"}}, 2)
		if err != nil {
			return nil, err
		}
		if err := b.Seal(reloadTestKey); err != nil {
			return nil, err
		}
		return b, nil
	})
)

func reloadBundle(t *testing.T) *bundle.Bundle {
	t.Helper()
	b, err := reloadBundleOnce()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return b.Clone()
}

// statsBody fetches /stats as a raw JSON object.
func statsBody(t *testing.T, ts *httptest.Server) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	return m
}

// TestServerReloadAndStats: the bundle lifecycle over HTTP. A server
// that is not bundle-backed omits every bundle field from /stats; a
// verified POST /reload swaps the table and stamps results with the
// serving digest; a tampered reload is refused with the typed reason
// and rolls back to (keeps) the prior digest.
func TestServerReloadAndStats(t *testing.T) {
	s := newServer(t, fleet.Config{
		WorkersPerShard: 2, QueueCapacity: 8,
		BundlePub: reloadTestKey.Public().(ed25519.PublicKey),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Not bundle-backed: the bundle fields must be absent, not empty.
	st := statsBody(t, ts)
	for _, k := range []string{"bundle_digest", "reload_count", "last_reload_status"} {
		if _, ok := st[k]; ok {
			t.Fatalf("/stats exposes %s on a non-bundle-backed server", k)
		}
	}

	// A bench result before any bundle carries no digest.
	code, rj := postRun(t, ts, `{"workload":"nn","mechanism":"lmi","seed":1}`)
	if code != http.StatusOK || rj.Bundle != "" {
		t.Fatalf("pre-bundle run: code=%d bundle=%q", code, rj.Bundle)
	}

	// Genuine reload.
	b := reloadBundle(t)
	var buf bytes.Buffer
	if err := b.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/reload", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ok struct {
		Status  string `json:"status"`
		Serving string `json:"serving_bundle_digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ok); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ok.Status != "ok" || ok.Serving != b.Digest {
		t.Fatalf("reload: code=%d body=%+v want digest %s", resp.StatusCode, ok, b.Digest)
	}

	// The served result now carries the bundle digest.
	code, rj = postRun(t, ts, `{"workload":"nn","mechanism":"lmi","seed":1}`)
	if code != http.StatusOK || rj.Bundle != b.Digest {
		t.Fatalf("bundle-backed run: code=%d bundle=%q want %s", code, rj.Bundle, b.Digest)
	}
	// An unbundled workload still serves, without a digest.
	code, rj = postRun(t, ts, `{"workload":"needle","mechanism":"lmi","seed":1}`)
	if code != http.StatusOK || rj.Bundle != "" {
		t.Fatalf("unbundled workload: code=%d bundle=%q", code, rj.Bundle)
	}

	st = statsBody(t, ts)
	if got := string(st["bundle_digest"]); got != `"`+b.Digest+`"` {
		t.Fatalf("/stats bundle_digest = %s, want %q", got, b.Digest)
	}
	if got := string(st["reload_count"]); got != "1" {
		t.Fatalf("/stats reload_count = %s, want 1", got)
	}
	if got := string(st["last_reload_status"]); got != `"ok"` {
		t.Fatalf("/stats last_reload_status = %s, want ok", got)
	}

	// Tampered reload: flip a code byte without resealing. Fail-closed
	// refusal, typed reason on the wire, prior digest keeps serving.
	tb := reloadBundle(t)
	w := []byte(tb.Entries[0].Code[0])
	if w[0] == '0' {
		w[0] = '1'
	} else {
		w[0] = '0'
	}
	tb.Entries[0].Code[0] = string(w)
	buf.Reset()
	if err := tb.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/reload", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rej struct {
		Status  string `json:"status"`
		Reason  string `json:"reason"`
		Error   string `json:"error"`
		Serving string `json:"serving_bundle_digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || rej.Status != "rejected" {
		t.Fatalf("tampered reload: code=%d body=%+v", resp.StatusCode, rej)
	}
	if rej.Reason != string(bundle.ReasonDigestMismatch) || !strings.Contains(rej.Error, "bundle rejected") {
		t.Fatalf("tampered reload not typed: %+v", rej)
	}
	if rej.Serving != b.Digest || s.BundleDigest() != b.Digest {
		t.Fatalf("rollback lost the prior digest: serving %q want %s", rej.Serving, b.Digest)
	}
	st = statsBody(t, ts)
	if got := string(st["reload_count"]); got != "2" {
		t.Fatalf("/stats reload_count = %s, want 2", got)
	}
	if !strings.Contains(string(st["last_reload_status"]), "digest-mismatch") {
		t.Fatalf("/stats last_reload_status lost the rejection: %s", st["last_reload_status"])
	}
	// The bundle-backed result still serves on the prior epoch.
	code, rj = postRun(t, ts, `{"workload":"nn","mechanism":"lmi","seed":1}`)
	if code != http.StatusOK || rj.Bundle != b.Digest {
		t.Fatalf("post-rejection run: code=%d bundle=%q want %s", code, rj.Bundle, b.Digest)
	}
}

// TestServerReloadNoTrustedKey: with no configured key every bundle is
// refused — there is no trust-on-first-use.
func TestServerReloadNoTrustedKey(t *testing.T) {
	s := testServer(t)
	if err := s.Reload(reloadBundle(t)); bundle.RejectionReason(err) != bundle.ReasonWrongKey {
		t.Fatalf("keyless reload: %v, want wrong-key rejection", err)
	}
	if s.BundleDigest() != "" {
		t.Fatalf("keyless reload installed a bundle")
	}
}
