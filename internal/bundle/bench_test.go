package bundle

import (
	"bytes"
	"testing"

	"lmi/internal/workloads"
)

// BenchmarkReleaseBuildVerify is the static-pass layer's profile entry
// point: one iteration builds all 28 workloads with elision and
// specialization on one worker, seals and encodes the bundle, then
// decodes it and runs Verify, which re-runs every static pass and
// audit. `make profile TIER=release` runs it under the CPU and heap
// profilers.
func BenchmarkReleaseBuildVerify(b *testing.B) {
	specs := releaseSpecs()
	b.ReportAllocs()
	for range b.N {
		built, err := Build(specs, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := built.Seal(testKey); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := built.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		decoded, err := Decode(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Verify(decoded, trusted()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReleaseVerify times only what every lmi-serve start and
// hot reload pays: decoding the 28-entry elide + specialize bundle and
// running Verify on it. The bundle is built, sealed and encoded once,
// before the timer starts.
func BenchmarkReleaseVerify(b *testing.B) {
	built, err := Build(releaseSpecs(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := built.Seal(testKey); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		decoded, err := Decode(bytes.NewReader(encoded))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Verify(decoded, trusted()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBundleDecode is the codec layer's profile entry point: it
// decodes the 28-entry elide + specialize bundle, built, sealed and
// encoded once before the timer starts.
func BenchmarkBundleDecode(b *testing.B) {
	built, err := specBundleOnce()
	if err != nil {
		b.Fatal(err)
	}
	encoded := encodeBytes(b, built)
	b.SetBytes(int64(len(encoded)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Decode(bytes.NewReader(encoded)); err != nil {
			b.Fatal(err)
		}
	}
}

// releaseSpecs is every workload with elision and specialization.
func releaseSpecs() []BuildSpec {
	var specs []BuildSpec
	for _, s := range workloads.All() {
		specs = append(specs, BuildSpec{Workload: s.Name, Elide: true, Specialize: true})
	}
	return specs
}
