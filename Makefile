# Convenience targets; scripts/check.sh is the canonical gate.

GO ?= go

.PHONY: build test race vet lint analyze race-oracle peval check check-short bench serve soak fleet-soak fast bundle profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 45m ./...

# Static verification of the LMI microcode contract over every lowered
# kernel, plus the custom vet pass (no raw panic(, os.Exit(, ambient
# clock read, or math/rand import in non-test code under internal/) and
# the unused-export scan. All are also part of the check gate.
lint:
	$(GO) run ./cmd/lmi-lint -all
	$(GO) run ./scripts/vetnopanic
	$(GO) run ./scripts/deadexports

# The full static-analysis gate: the microcode contract over the whole
# corpus plus the elide soundness audit — every workload recompiled with
# static extent-check elision, every E bit re-derived by the linter's
# independent value analysis — plus the static shared-memory race and
# barrier-divergence analyzer over every program (pre- and
# post-optimizer, both modes, and the elided compiles), plus the
# specialization audit — every workload partially evaluated against its
# concrete launch contract and the certificate's every transform
# re-judged. Fails on any unsound-elide diagnostic, any
# proven-out-of-bounds access in a shipped workload, any potential
# race, divergent barrier, inexpressible shared address, or unsound
# specialization.
analyze:
	$(GO) run ./cmd/lmi-lint -all -elide-audit -race -spec-audit

# The dynamic race-oracle overhead sweep: the Fig. 12 corpus with the
# shared-memory race oracle off vs armed. Asserts the oracle never
# perturbs a cycle count and reports zero races on the
# statically-proven-race-free corpus; regenerates the committed
# cycle-tier artifact BENCH_fig12_raceoracle.json.
race-oracle:
	$(GO) run ./cmd/lmi-bench -race-oracle-json BENCH_fig12_raceoracle.json

# The contract-specialization sweep: every workload's general elided
# program vs its certified residual under the same launch, with the
# cycle and avoided-check deltas priced by the hardware-cost model;
# regenerates the committed cycle-tier artifact BENCH_fig12_peval.json
# (byte-identical across -jobs; the check gate pins it).
peval:
	$(GO) run ./cmd/lmi-bench -peval-json BENCH_fig12_peval.json

# The full verification gate: vet + build + tests + race detector +
# static contract lint.
check:
	scripts/check.sh

# Same gate with the slow Fig. 12/13 race sweeps skipped.
check-short:
	scripts/check.sh -short

# The hardened simulation service: the fleet coordinator with one shard
# (POST /run /reload, GET /healthz /readyz /stats; graceful drain on
# SIGTERM with a JSON shutdown report).
serve:
	$(GO) run ./cmd/lmi-serve -addr :8080

# The chaos soak: the fleet soak with one shard — a seeded request
# stream replayed through the single-node serving core on a virtual
# timeline; nonzero exit on any robustness violation (also part of the
# check gate, where the report and decision log must be byte-identical
# across worker counts).
soak:
	$(GO) run ./cmd/lmi-serve -soak -v

# The fleet soak: 100000 seeded requests hash-sharded across 4
# simulated device workers under scripted burst overloads, replayed
# through the live coordinator's serving state machine, with every
# request's safety decision logged as JSONL (also part of the check
# gate, where the report and decision log must additionally be
# byte-identical across worker counts).
fleet-soak:
	$(GO) run ./cmd/lmi-serve -soak -shards 4 -requests 100000 \
		-decision-log fleet-decisions.jsonl
	@echo "decision log: fleet-decisions.jsonl"

# Build and self-verify a signed artifact bundle of the default
# workload trio with the dev signing key (a fixture, not a secret; set
# LMI_BUNDLE_KEY or KEY= for a real one). The artifact bytes are a pure
# function of (workload list, key) — the check gate additionally pins
# -jobs 1 vs -jobs 4 byte-identity and single-byte tamper rejection.
# Serve it with: lmi-serve -bundle lmi-bundle.json -bundle-pub <signer>.
KEY ?= 0101010101010101010101010101010101010101010101010101010101010101
bundle:
	@out=$$($(GO) run ./cmd/lmi-compile -bundle lmi-bundle.json -key $(KEY)) && \
	echo "$$out" && \
	$(GO) run ./cmd/lmi-compile -verify-bundle lmi-bundle.json \
		-pub $$(echo "$$out" | awk '$$1 == "signer" { print $$2 }')

# The fast-path tier gate: the full workload differential corpus, the
# operand-form tables (ALU and memory) and the chaos campaign replayed
# through both execution tiers (the compiled tier's functional
# projection and memory bytes must be bit-identical to the cycle
# simulator), the random-kernel fuzz against the IR interpreter on both
# tiers, then the whole bench sweep on the compiled tier — nonzero exit
# on any divergence or experiment failure.
fast:
	$(GO) test -run 'TestDifferentialWorkloadCorpus|TestCompiledOperandForms|TestMemoryOperandForms' ./internal/fastsim/
	$(GO) test -run 'TestDifferentialFuzz' ./internal/sim/
	$(GO) test -run 'TestTierDifferentialChaosCorpus' ./internal/chaos/
	$(GO) run ./cmd/lmi-bench -all -tier compiled

# The evaluation benchmarks; LMI_BENCH_JSON=. also writes BENCH_*.json
# trajectory points for the fig01/fig12/fig13 sweeps.
bench:
	LMI_BENCH_JSON=. $(GO) test -bench=. -benchmem . | tee bench_output.txt

# CPU and heap profiles of one layer. TIER=cycle or TIER=compiled
# profiles the sequential Fig. 12 sweep on that execution tier;
# TIER=release profiles the static passes and audits through
# BenchmarkReleaseBuildVerify (internal/bundle: four passes of building,
# sealing and encoding the 28-workload elide + specialize bundle on one
# worker, then decoding it and running bundle.Verify; the test binary
# goes to $TMPDIR, or /tmp). Writes cpu.pprof and mem.pprof and prints
# the top 25 nodes of the CPU profile and of the bytes allocated. Read
# them further with: go tool pprof -top cpu.pprof. TIER=verify profiles
# the verify half alone, as every lmi-serve start and reload pays it:
# BenchmarkReleaseVerify, 20 decodes + bundle.Verify of the bundle built
# once before the timer.
TIER ?= cycle
profile:
ifeq ($(TIER),release)
	$(GO) test -run '^$$' -bench BenchmarkReleaseBuildVerify -benchtime 4x -o "$${TMPDIR:-/tmp}/lmi-bundle.test" \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/bundle
else ifeq ($(TIER),verify)
	$(GO) test -run '^$$' -bench BenchmarkReleaseVerify -benchtime 20x -benchmem -o "$${TMPDIR:-/tmp}/lmi-bundle.test" \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/bundle
else
	$(GO) run ./cmd/lmi-bench -fig 12 -jobs 1 -tier $(TIER) -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
endif
	$(GO) tool pprof -top -nodecount=25 cpu.pprof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 mem.pprof
