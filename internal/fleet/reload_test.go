package fleet

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lmi/internal/bundle"
)

var (
	fleetTestKey = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x31}, ed25519.SeedSize))

	// Two bundle versions over the same entry key with different code:
	// v1 serves nn un-elided, v2 elided.
	fleetBundlesOnce = sync.OnceValues(func() ([2]*bundle.Bundle, error) {
		var out [2]*bundle.Bundle
		for i, elide := range []bool{false, true} {
			b, err := bundle.Build([]bundle.BuildSpec{{Workload: "nn", Elide: elide}}, 2)
			if err != nil {
				return out, err
			}
			if err := b.Seal(fleetTestKey); err != nil {
				return out, err
			}
			out[i] = b
		}
		return out, nil
	})
)

func fleetBundles(t *testing.T) (*bundle.Bundle, *bundle.Bundle) {
	t.Helper()
	bs, err := fleetBundlesOnce()
	if err != nil {
		t.Fatalf("building bundles: %v", err)
	}
	return bs[0].Clone(), bs[1].Clone()
}

func bundleConfig() Config {
	cfg := testConfig(nil)
	cfg.BundlePub = fleetTestKey.Public().(ed25519.PublicKey)
	return cfg
}

// TestFleetSoakReloadCampaign: the default soak scripts two genuine
// reloads plus one tampered reload per tamper kind; every tampered
// bundle is rejected with its pinned typed reason before any lane
// executes from it, rejections never move the serving digest, and
// every bundle-served result carries a good version's digest — no torn
// tables. The campaign appears in the decision log via per-request
// bundle digests.
func TestFleetSoakReloadCampaign(t *testing.T) {
	rep, out, log := runSoak(t, SoakConfig{Seed: 18, Requests: 1200, Shards: 4})
	if len(rep.BundleDigests) != 2 || rep.BundleDigests[0] == rep.BundleDigests[1] {
		t.Fatalf("bundle versions = %v, want two distinct digests", rep.BundleDigests)
	}
	genuine, rejected := 0, map[string]ReloadRecord{}
	for _, rr := range rep.Reloads {
		if rr.Kind == "genuine" {
			genuine++
			continue
		}
		rejected[rr.Kind] = rr
	}
	if genuine != 2 {
		t.Fatalf("%d genuine reloads, want 2", genuine)
	}
	for _, kind := range bundle.TamperKinds() {
		rr, ok := rejected[kind]
		if !ok {
			t.Fatalf("tamper kind %s never attempted", kind)
		}
		if rr.Status != "rejected" || rr.Reason != string(bundle.ExpectedTamperRejection(kind)) {
			t.Fatalf("tamper %s: status=%s reason=%s, want rejected/%s",
				kind, rr.Status, rr.Reason, bundle.ExpectedTamperRejection(kind))
		}
	}
	served := map[string]int{}
	for _, res := range rep.Results {
		if res.BundleDigest != "" {
			served[res.BundleDigest]++
		}
	}
	if len(served) != 2 {
		t.Fatalf("results served from %d bundle versions, want both: %v", len(served), served)
	}
	if !strings.Contains(log, `"bundle_digest":"`+rep.BundleDigests[0][:16]) &&
		!strings.Contains(log, `"bundle_digest":"`+rep.BundleDigests[1][:16]) {
		t.Fatal("decision log carries no bundle digest")
	}
	if !strings.Contains(out, "reload events") {
		t.Fatal("report renders no reload section")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestFleetSoakBundlesDisabled: with the campaign off the soak is the
// pure chaos replay — no bench requests, no digests, no reloads.
func TestFleetSoakBundlesDisabled(t *testing.T) {
	rep, out, _ := runSoak(t, SoakConfig{Seed: 7, Requests: 300, Shards: 2, DisableBundles: true})
	if len(rep.BundleDigests) != 0 || len(rep.Reloads) != 0 {
		t.Fatalf("disabled campaign produced digests=%v reloads=%v", rep.BundleDigests, rep.Reloads)
	}
	for i, res := range rep.Results {
		if res.Req.Workload != "" || res.BundleDigest != "" {
			t.Fatalf("request %d: bench/bundle leakage with bundles disabled: %+v", i, res.Req)
		}
	}
	if strings.Contains(out, "reload events") {
		t.Fatal("disabled campaign still renders a reload section")
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("robustness violations:\n%s", v)
	}
}

// TestCoordinatorReloadRejectionKeepsServing: a tampered reload is
// refused with the typed reason and every shard keeps the prior table.
func TestCoordinatorReloadRejectionKeepsServing(t *testing.T) {
	v1, v2 := fleetBundles(t)
	c, err := NewCoordinator(bundleConfig())
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())
	if err := c.Reload(v1); err != nil {
		t.Fatalf("reload v1: %v", err)
	}
	wrongKey := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x77}, ed25519.SeedSize))
	tampered, err := bundle.Tamper(bundle.TamperWrongKey, v2, v1, fleetTestKey, wrongKey)
	if err != nil {
		t.Fatalf("tamper: %v", err)
	}
	if err := c.Reload(tampered); bundle.RejectionReason(err) != bundle.ReasonWrongKey {
		t.Fatalf("tampered reload: %v, want wrong-key rejection", err)
	}
	for i, exec := range c.execs {
		if got := exec.BundleDigest(); got != v1.Digest {
			t.Fatalf("shard %d serves %q after rejected reload, want %s", i, got, v1.Digest)
		}
	}
	c.mu.Lock()
	n, last := c.reloads, c.lastReload
	c.mu.Unlock()
	if n != 2 || !strings.Contains(last, string(bundle.ReasonWrongKey)) {
		t.Fatalf("reload stats = %d %q", n, last)
	}
}

// TestCoordinatorReloadHTTP: the fleet's /reload and /stats surface —
// absent bundle fields before any attempt, a verified swap over POST,
// and a 422 with the typed reason for a tampered bundle.
func TestCoordinatorReloadHTTP(t *testing.T) {
	v1, _ := fleetBundles(t)
	c, err := NewCoordinator(bundleConfig())
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	stats := func() map[string]json.RawMessage {
		t.Helper()
		resp, err := http.Get(srv.URL + "/stats")
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

	st := stats()
	for _, k := range []string{"bundle_digest", "reload_count", "last_reload_status"} {
		if _, ok := st[k]; ok {
			t.Fatalf("/stats exposes %s before any reload", k)
		}
	}

	var buf bytes.Buffer
	if err := v1.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/reload", "application/json", &buf)
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
	if resp.StatusCode != http.StatusOK || ok.Status != "ok" || ok.Serving != v1.Digest {
		t.Fatalf("POST /reload = %d %+v, want ok serving %s", resp.StatusCode, ok, v1.Digest)
	}
	st = stats()
	if got := string(st["bundle_digest"]); got != `"`+v1.Digest+`"` {
		t.Fatalf("/stats bundle_digest = %s, want %q", got, v1.Digest)
	}
	if got := string(st["reload_count"]); got != "1" {
		t.Fatalf("/stats reload_count = %s, want 1", got)
	}

	// Tampered over the wire: flip a code byte without resealing.
	tb := v1.Clone()
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
	resp, err = http.Post(srv.URL+"/reload", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var rej struct {
		Status  string `json:"status"`
		Reason  string `json:"reason"`
		Serving string `json:"serving_bundle_digest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity ||
		rej.Status != "rejected" || rej.Reason != string(bundle.ReasonDigestMismatch) {
		t.Fatalf("tampered POST /reload = %d %+v", resp.StatusCode, rej)
	}
	if rej.Serving != v1.Digest || c.BundleDigest() != v1.Digest {
		t.Fatalf("rejection moved the serving digest: %q, want %s", rej.Serving, v1.Digest)
	}
}

// TestCoordinatorReloadOverCap: a /reload body one byte over the cap is
// the same typed malformed 422 as any refused bundle, and the serving
// bundle keeps serving.
func TestCoordinatorReloadOverCap(t *testing.T) {
	v1, _ := fleetBundles(t)
	c, err := NewCoordinator(bundleConfig())
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer c.Shutdown(context.Background())
	if err := c.Reload(v1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A reader without a length, so the body streams chunked.
	body := io.LimitReader(zeros{}, maxReloadBytes+1)
	resp, err := http.Post(srv.URL+"/reload", "application/json", body)
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
	if resp.StatusCode != http.StatusUnprocessableEntity ||
		rej.Status != "rejected" || rej.Reason != string(bundle.ReasonMalformed) ||
		!strings.Contains(rej.Error, "exceeds") {
		t.Fatalf("over-cap POST /reload = %d %+v, want the cap's malformed rejection", resp.StatusCode, rej)
	}
	if rej.Serving != v1.Digest || c.BundleDigest() != v1.Digest {
		t.Fatalf("rejection moved the serving digest: %q, want %s", rej.Serving, v1.Digest)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
