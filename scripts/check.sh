#!/bin/sh
# check.sh — the repository's verification gate: vet, build, the full
# test suite, and the race detector over everything (the runner's
# parallel sweeps make -race a load-bearing check, not a formality).
#
# Usage: scripts/check.sh [-short]
#   -short   pass -short to the race run (skips the slow Fig. 12/13
#            sweeps; use for quick iteration, CI runs the full gate)
set -eu

cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

# Formatting gate: every Go file outside hidden directories (build and
# benchmark scratch) must be gofmt-clean.
echo "== gofmt -l"
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "check: FAIL: files not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# Custom vet pass: no raw panic( or os.Exit( in non-test code under
# internal/ — runtime layers recover panics only at hardened pool
# boundaries; everywhere else failures must be typed errors — and no
# ambient clock reads (time.Now/time.Since outside the sanctioned
# wall-clock packages) or math/rand imports: every rendered artifact
# must be a pure function of its inputs.
echo "== vetnopanic"
go run ./scripts/vetnopanic

# Unused-export scan: every exported identifier and method of the
# module must have a non-test caller (perfbench's included), or an
# entry in scripts/deadexports's in-source allowlist naming the test
# that needs it. A stale allowlist entry fails too.
echo "== deadexports"
go run ./scripts/deadexports

# perfbench is its own module (it imports the serving and bundle
# packages), so ./... above never compiles it. Vet and test it here; the
# step writes nothing under perfbench/.
echo "== perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

# The race run needs a raised -timeout: the full Fig. 12/13 sweeps under
# the race detector exceed go test's 10-minute default on small hosts.
echo "== go test -race -timeout 45m $short ./..."
go test -race -timeout 45m $short ./...

# Static contract verification: every workload and app kernel, in both
# modes, pre- and post-optimizer, must satisfy the LMI microcode
# contract (hint placement, address tracing, extent containment,
# free-path nullification). -elide-audit additionally recompiles every
# workload with static extent-check elision and re-derives each planted
# E bit from the linter's own register-level value analysis: any
# unsound-elide diagnostic, or a proven-out-of-bounds access in a
# shipped workload (which fails the elided compile itself), breaks the
# gate. -race additionally runs the static shared-memory race and
# barrier-divergence analyzer over every program in the corpus (both
# modes, pre- and post-optimizer, plus the elided compiles): any
# potential race, divergent barrier, or inexpressible shared address is
# a diagnostic. -spec-audit additionally partially evaluates every
# workload against its concrete launch contract and re-judges the
# specialization certificate's every transform with the independent
# audit (mechanical replay of the log plus a from-scratch re-proof of
# each elision and fold): any unsound specialization is a diagnostic.
# Nonzero exit on any diagnostic. Same run as `make analyze`.
echo "== lmi-lint -all -elide-audit -race -spec-audit"
go run ./cmd/lmi-lint -all -elide-audit -race -spec-audit

# Chaos determinism smoke: the fault-injection campaign must render
# byte-identical reports regardless of worker count — any divergence
# means a scheduling-order dependence crept into the engine.
echo "== chaos determinism smoke (-jobs 1 vs -jobs 4)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/lmi-sec -chaos -seed 1 -trials 2 -jobs 1 > "$tmpdir/chaos-j1.txt"
go run ./cmd/lmi-sec -chaos -seed 1 -trials 2 -jobs 4 > "$tmpdir/chaos-j4.txt"
cmp "$tmpdir/chaos-j1.txt" "$tmpdir/chaos-j4.txt"

# The campaign above also replays the three synchronization-fault kinds
# (race-drop-bar, race-stride-perturb, race-demote-atomic); a trial only
# counts as detected when the static race analyzer and the dynamic race
# oracle agree on the planted conflict pairs at the exact instructions
# (the pinning itself is asserted instruction-by-instruction in
# internal/chaos TestRaceKindsExactPinning). Every race-kind matrix row
# must score det == n for every mechanism — any miss, toleration,
# false positive, or degradation on a race injection breaks the gate.
echo "== chaos race kinds all detected"
if ! grep -q 'race-drop-bar' "$tmpdir/chaos-j1.txt"; then
    echo "check: FAIL: chaos campaign did not run the race kinds" >&2
    exit 1
fi
awk '$2 ~ /^race-/ && $5 != $4 {
        print "check: FAIL: chaos race injection not fully detected: " $0
        bad = 1
     }
     END { exit bad }' "$tmpdir/chaos-j1.txt" >&2

# Race-oracle overhead sweep: the Fig. 12 corpus with the dynamic race
# oracle off vs armed. The sweep itself asserts the oracle never
# perturbs a cycle count and finds zero races on the statically-proven
# corpus; the JSON artifact carries no wall-clock data and must be
# byte-identical across worker counts. (BENCH_fig12_raceoracle.json is
# the committed cycle-tier artifact.)
echo "== race-oracle sweep determinism (-jobs 1 vs -jobs 4)"
go run ./cmd/lmi-bench -tier compiled -jobs 1 \
    -race-oracle-json "$tmpdir/raceoracle-j1.json" > /dev/null
go run ./cmd/lmi-bench -tier compiled -jobs 4 \
    -race-oracle-json "$tmpdir/raceoracle-j4.json" > /dev/null
cmp "$tmpdir/raceoracle-j1.json" "$tmpdir/raceoracle-j4.json"

# Contract-specialization sweep gate: the Fig. 12 corpus's general
# elided programs vs their certified residuals. The sweep itself
# asserts every residual preserves the fault/halt projection and the
# lane-access volume while strictly reducing total cycles and avoiding
# extent checks; its JSON artifact carries no wall-clock data, must be
# byte-identical across worker counts, and must match the committed
# cycle-tier artifact BENCH_fig12_peval.json (regenerate with
# `make peval` after a deliberate compiler/specializer change).
echo "== contract-specialization sweep determinism (-jobs 1 vs -jobs 4, committed artifact)"
go run ./cmd/lmi-bench -jobs 1 -peval-json "$tmpdir/peval-j1.json" > /dev/null
go run ./cmd/lmi-bench -jobs 4 -peval-json "$tmpdir/peval-j4.json" > /dev/null
cmp "$tmpdir/peval-j1.json" "$tmpdir/peval-j4.json"
cmp "$tmpdir/peval-j1.json" BENCH_fig12_peval.json

# Compiled-tier determinism smoke: the full bench sweep on the fast
# functional tier must render byte-identical output regardless of
# worker count, exactly like the cycle tier — the compiled closures run
# on the same deterministic runner pool. (The tier's bit-for-bit
# equivalence with the cycle simulator over the whole corpus is the
# differential gate inside `go test`: internal/fastsim and
# internal/chaos TestTierDifferential*. Both tiers run the same ALU
# kernels from internal/isa/alu.go and the same warp semantics from
# internal/sim/warp.go (launch prelude, SIMT stack, S2R, OCU site, LDC,
# EC site, memory lane kernels, heap intrinsics), so that gate covers
# operand routing, commit, scheduling, dispatch and the unit-stride
# path. What the shared code does is checked against references it does
# not produce: ALU results against the IR interpreter (internal/sim
# TestDifferentialFuzz, which also covers the SIMT stack) and
# hand-written values (internal/isa TestALUEdgeValues), the EC protocol
# against internal/fastsim TestWarpFaultOrder's hand-written records,
# the OCU site against internal/fastsim TestOCUSite's hand-written
# values, the memory lane kernels against internal/fastsim
# TestMemoryOperandForms's byte model, S2R by the internal/apps 2-D
# kernels, and the mechanism hooks by sectest and the chaos campaign.)
echo "== compiled-tier determinism smoke (-jobs 1 vs -jobs 4)"
go run ./cmd/lmi-bench -all -tier compiled -jobs 1 > "$tmpdir/bench-compiled-j1.txt"
go run ./cmd/lmi-bench -all -tier compiled -jobs 4 > "$tmpdir/bench-compiled-j4.txt"
cmp "$tmpdir/bench-compiled-j1.txt" "$tmpdir/bench-compiled-j4.txt"

# Serving soak smoke: 200 seeded chaos requests replayed through the
# single-node (one-shard) fleet's serving state machine — the one the
# live coordinator runs: admission queue and fleet budget, classified
# retries, circuit breaker, signed-bundle reloads — on the virtual
# timeline. The soak itself exits nonzero on any
# robustness violation (untyped per-request error, missing result,
# escaped panic, missing decision record), and both the verbose report
# — every count, timestamp, and per-request line — and the decision log
# must be byte-identical across worker counts.
echo "== serving soak smoke (-jobs 1 vs -jobs 4)"
go run ./cmd/lmi-serve -soak -seed 2 -requests 200 -jobs 1 -v \
    -decision-log "$tmpdir/soak-j1.jsonl" > "$tmpdir/soak-j1.txt"
go run ./cmd/lmi-serve -soak -seed 2 -requests 200 -jobs 4 -v \
    -decision-log "$tmpdir/soak-j4.jsonl" > "$tmpdir/soak-j4.txt"
cmp "$tmpdir/soak-j1.txt" "$tmpdir/soak-j4.txt"
cmp "$tmpdir/soak-j1.jsonl" "$tmpdir/soak-j4.jsonl"

# Fleet soak gate: 100000 seeded requests sharded across 4 simulated
# device workers under scripted burst overloads, replayed on the
# virtual timeline through the serving state machine the live
# coordinator runs. The soak exits nonzero on any fleet robustness
# violation (a request without a final result, a shed without a typed
# overload error, an untyped failure, a missing or dropped decision
# record, an inconsistent per-shard breaker log) — and both the report
# and the per-request decision log must be byte-identical across
# worker counts.
echo "== fleet soak gate (100000 requests, 4 shards, -jobs 1 vs -jobs 4)"
go run ./cmd/lmi-serve -soak -shards 4 -seed 1 -requests 100000 -jobs 1 \
    -decision-log "$tmpdir/fleet-j1.jsonl" > "$tmpdir/fleet-j1.txt"
go run ./cmd/lmi-serve -soak -shards 4 -seed 1 -requests 100000 -jobs 4 \
    -decision-log "$tmpdir/fleet-j4.jsonl" > "$tmpdir/fleet-j4.txt"
cmp "$tmpdir/fleet-j1.txt" "$tmpdir/fleet-j4.txt"
cmp "$tmpdir/fleet-j1.jsonl" "$tmpdir/fleet-j4.jsonl"

# Signed-bundle gate. A fixed dev signing key (a test fixture, not a
# secret) builds the default workload trio into a bundle twice, at
# -jobs 1 and -jobs 4: the artifact bytes must be identical — entries
# build in canonical order on the deterministic runner pool and
# ed25519 signatures are deterministic, so parallelism must never
# change a byte. The bundle must then verify against the matching
# public key (signature, per-entry digests, and the static passes
# re-run against the embedded certificates: three per entry here, four
# for a :spec entry), and flipping a single byte of the artifact must
# be a typed fail-closed rejection (nonzero exit, "bundle rejected" on
# stderr) — the same path lmi-serve takes before opening its listener
# or accepting a reload.
echo "== signed bundle gate (build determinism, verify, tamper and whitespace-edit rejection)"
devkey=0101010101010101010101010101010101010101010101010101010101010101
devpub=$(go run ./cmd/lmi-compile -bundle "$tmpdir/bundle-j1.json" -key "$devkey" -jobs 1 \
    | awk '$1 == "signer" { print $2 }')
go run ./cmd/lmi-compile -bundle "$tmpdir/bundle-j4.json" -key "$devkey" -jobs 4 > /dev/null
cmp "$tmpdir/bundle-j1.json" "$tmpdir/bundle-j4.json"
go run ./cmd/lmi-compile -verify-bundle "$tmpdir/bundle-j1.json" -pub "$devpub" > /dev/null
# Flip one byte of the single-line artifact (the first '4' is a hex
# digit inside a digest or program word) and demand the typed
# rejection.
sed 's/4/5/' "$tmpdir/bundle-j1.json" > "$tmpdir/bundle-tampered.json"
if cmp -s "$tmpdir/bundle-j1.json" "$tmpdir/bundle-tampered.json"; then
    echo "check: FAIL: tamper edit changed nothing" >&2
    exit 1
fi
if go run ./cmd/lmi-compile -verify-bundle "$tmpdir/bundle-tampered.json" -pub "$devpub" \
    > /dev/null 2> "$tmpdir/bundle-reject.txt"; then
    echo "check: FAIL: tampered bundle verified" >&2
    exit 1
fi
if ! grep -q 'bundle rejected' "$tmpdir/bundle-reject.txt"; then
    echo "check: FAIL: tampered bundle not rejected with the typed error:" >&2
    cat "$tmpdir/bundle-reject.txt" >&2
    exit 1
fi
# A whitespace-only edit keeps the JSON's meaning but not the signed
# bytes: the decoder accepts only the canonical encoding, so it must be
# the same typed rejection.
sed 's/,"mode":/, "mode":/' "$tmpdir/bundle-j1.json" > "$tmpdir/bundle-ws.json"
if cmp -s "$tmpdir/bundle-j1.json" "$tmpdir/bundle-ws.json"; then
    echo "check: FAIL: whitespace edit changed nothing" >&2
    exit 1
fi
if go run ./cmd/lmi-compile -verify-bundle "$tmpdir/bundle-ws.json" -pub "$devpub" \
    > /dev/null 2> "$tmpdir/bundle-ws-reject.txt"; then
    echo "check: FAIL: whitespace-edited bundle verified" >&2
    exit 1
fi
if ! grep -q 'bundle rejected' "$tmpdir/bundle-ws-reject.txt"; then
    echo "check: FAIL: whitespace-edited bundle not rejected with the typed error:" >&2
    cat "$tmpdir/bundle-ws-reject.txt" >&2
    exit 1
fi

# Specialized-bundle gate. A bundle carrying a specialization record
# (the :spec suffix: residual program + concrete contract + certificate
# + the fourth, spec-audit certificate) must verify clean, and a
# single-byte tamper inside the specialization record must be the same
# typed fail-closed rejection as any other bundle corruption — the
# record rides inside the entry's code digest, so every certificate
# binding breaks at once. The bundle builds at -jobs 1 and -jobs 4 and
# the two artifacts must be byte-identical, as for the trio above.
echo "== specialized bundle gate (build determinism, verify, single-byte spec-record tamper rejection)"
go run ./cmd/lmi-compile -bundle "$tmpdir/bundle-spec.json" -key "$devkey" -jobs 1 \
    -bundle-workloads "backprop:elide,needle:spec,nn:elide" > /dev/null
go run ./cmd/lmi-compile -bundle "$tmpdir/bundle-spec-j4.json" -key "$devkey" -jobs 4 \
    -bundle-workloads "backprop:elide,needle:spec,nn:elide" > /dev/null
cmp "$tmpdir/bundle-spec.json" "$tmpdir/bundle-spec-j4.json"
go run ./cmd/lmi-compile -verify-bundle "$tmpdir/bundle-spec.json" -pub "$devpub" > /dev/null
# One byte inside the record's key material ("spec_code" ->
# "spec_c0de") makes the residual payload unreadable; the verifier
# must reject, not fall back to the general program.
sed 's/"spec_code"/"spec_c0de"/' "$tmpdir/bundle-spec.json" > "$tmpdir/bundle-spec-tampered.json"
if cmp -s "$tmpdir/bundle-spec.json" "$tmpdir/bundle-spec-tampered.json"; then
    echo "check: FAIL: spec tamper edit changed nothing" >&2
    exit 1
fi
if go run ./cmd/lmi-compile -verify-bundle "$tmpdir/bundle-spec-tampered.json" -pub "$devpub" \
    > /dev/null 2> "$tmpdir/bundle-spec-reject.txt"; then
    echo "check: FAIL: tampered specialized bundle verified" >&2
    exit 1
fi
if ! grep -q 'bundle rejected' "$tmpdir/bundle-spec-reject.txt"; then
    echo "check: FAIL: tampered specialized bundle not rejected with the typed error:" >&2
    cat "$tmpdir/bundle-spec-reject.txt" >&2
    exit 1
fi

# CLI validation smoke: out-of-range flags must fail with the uniform
# usage error (exit 2), not silent misbehavior.
echo "== CLI usage-error smoke"
for cmdline in "./cmd/lmi-sim -sms 0 -bench nn" \
               "./cmd/lmi-sec -trials 0" \
               "./cmd/lmi-bench -jobs -1 -table 2" \
               "./cmd/lmi-bench -tier warp -table 2" \
               "./cmd/lmi-sim -tier warp -bench nn" \
               "./cmd/lmi-serve -soak -requests 0" \
               "./cmd/lmi-serve -soak -shards 0" \
               "./cmd/lmi-serve -log-buffer 0 -soak -shards 2 -requests 1" \
               "./cmd/lmi-serve -bundle b.json" \
               "./cmd/lmi-serve -bundle b.json -bundle-pub zz" \
               "./cmd/lmi-compile -bench needle -elide maybe" \
               "./cmd/lmi-compile -bench needle -elide on -specialize -contract warp=32" \
               "./cmd/lmi-compile -bench needle -specialize" \
               "./cmd/lmi-compile -bench needle -elide on -contract n=64" \
               "./cmd/lmi-compile -bundle b.json -key abcd" \
               "./cmd/lmi-compile -bundle b.json -key @" \
               "./cmd/lmi-compile -bundle b.json -key $devkey -bundle-workloads nn:fast" \
               "./cmd/lmi-lint -all -mode fast"; do
    if go run $cmdline >/dev/null 2>&1; then
        echo "check: FAIL: 'go run $cmdline' accepted an invalid flag" >&2
        exit 1
    fi
done

echo "check: OK"
