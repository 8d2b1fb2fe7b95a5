package bundle

import (
	"bytes"
	"testing"

	"lmi/internal/compiler"
	"lmi/internal/isa"
	"lmi/internal/lint"
	"lmi/internal/peval"
	"lmi/internal/race"
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

// BenchmarkVerifyPasses times each static pass Verify re-runs, alone,
// over the decoded 28-entry elide + specialize bundle: lint with the
// source map, the elide audit, the race analysis and the specialize
// audit, one op being the pass over all 28 entries. peval re-specializes
// the 28 workloads under their concrete contracts, which is the
// producer the specialize audit judges.
func BenchmarkVerifyPasses(b *testing.B) {
	built, err := specBundleOnce()
	if err != nil {
		b.Fatal(err)
	}
	decoded, err := Decode(bytes.NewReader(encodeBytes(b, built)))
	if err != nil {
		b.Fatal(err)
	}
	type entry struct {
		e          *Entry
		prog, spec *isa.Program
	}
	var entries []entry
	for i := range decoded.Entries {
		e := &decoded.Entries[i]
		prog, err := e.DecodeProgram()
		if err != nil {
			b.Fatal(err)
		}
		spec, err := e.DecodeSpecProgram()
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, entry{e, prog, spec})
	}
	pass := func(name string, run func(x *entry)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				for i := range entries {
					run(&entries[i])
				}
			}
		})
	}
	pass("lint", func(x *entry) { lint.CheckWithSource(x.prog, compiler.ModeLMI, x.e.SourceMap) })
	pass("elide", func(x *entry) { lint.ElideAudit(x.prog, x.e.Contract) })
	pass("race", func(x *entry) { race.Analyze(x.prog, x.e.Contract, x.e.SourceMap) })
	pass("spec", func(x *entry) {
		lint.SpecializeAudit(x.prog, x.spec, x.e.SpecCertificate, *x.e.SpecContract)
	})
	b.Run("peval", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, s := range workloads.All() {
				f, err := s.Kernel()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := peval.Specialize(f, s.Contract(), s.ConcreteContract(), peval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// releaseSpecs is every workload with elision and specialization.
func releaseSpecs() []BuildSpec {
	var specs []BuildSpec
	for _, s := range workloads.All() {
		specs = append(specs, BuildSpec{Workload: s.Name, Elide: true, Specialize: true})
	}
	return specs
}
