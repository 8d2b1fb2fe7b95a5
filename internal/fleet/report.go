package fleet

import (
	"errors"
	"fmt"
	"io"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/serve"
)

// Violations audits the report against the fleet's robustness
// contract and returns one message per breach (empty = clean run).
// The contract: every request in the stream reaches exactly one final
// result; every shed carries ErrOverloaded or ErrFleetOverloaded; every
// failure is typed and its class matches; no engine panic escapes into
// a result; every request has a decision record (the sink dropped
// nothing); and each shard's breaker transition log is internally
// consistent.
func (r *SoakReport) Violations() []string {
	var v []string
	for i, res := range r.Results {
		switch res.Status {
		case "":
			v = append(v, fmt.Sprintf("request %d: no final result", i))
			continue
		case serve.StatusOK:
			if res.Err != nil {
				v = append(v, fmt.Sprintf("request %d: ok but err=%v", i, res.Err))
			}
			continue
		case serve.StatusShed:
			if !errors.Is(res.Err, serve.ErrOverloaded) && !errors.Is(res.Err, ErrFleetOverloaded) {
				v = append(v, fmt.Sprintf("request %d: shed without a typed overload error: %v", i, res.Err))
			}
		case serve.StatusRejected:
			if !errors.Is(res.Err, serve.ErrCircuitOpen) {
				v = append(v, fmt.Sprintf("request %d: rejected without ErrCircuitOpen: %v", i, res.Err))
			}
		}
		if res.Err == nil {
			v = append(v, fmt.Sprintf("request %d: status %s with nil error", i, res.Status))
			continue
		}
		if !TypedError(res.Err) {
			v = append(v, fmt.Sprintf("request %d: untyped error %T: %v", i, res.Err, res.Err))
		}
		if serve.IsPanicError(res.Err) {
			v = append(v, fmt.Sprintf("request %d: engine panic escaped into result: %v", i, res.Err))
		}
		if res.Class != serve.Classify(res.Err) {
			v = append(v, fmt.Sprintf("request %d: class %s does not match error class %s",
				i, res.Class, serve.Classify(res.Err)))
		}
	}

	// Decision accounting: one record per request, none dropped.
	if want := uint64(len(r.Results)); r.Decisions.Written != want {
		v = append(v, fmt.Sprintf("decision log: %d records written for %d requests", r.Decisions.Written, want))
	}
	if r.Decisions.Dropped != 0 {
		v = append(v, fmt.Sprintf("decision log: %d records dropped in a sized-to-stream sink", r.Decisions.Dropped))
	}

	// Reload contract: genuine reloads install a known-good digest;
	// every tampered reload is rejected with exactly the typed reason
	// its kind pins, and a rejection never moves the serving digest.
	good := make(map[string]bool, len(r.BundleDigests))
	for _, d := range r.BundleDigests {
		good[d] = true
	}
	serving := ""
	if len(r.BundleDigests) > 0 {
		serving = r.BundleDigests[0]
	}
	for i, rr := range r.Reloads {
		if rr.Kind == "genuine" {
			if rr.Status != "ok" || !good[rr.Digest] {
				v = append(v, fmt.Sprintf("reload %d: genuine reload status %s digest %s", i, rr.Status, rr.Digest))
			}
			serving = rr.Digest
		} else {
			want := bundle.ExpectedTamperRejection(rr.Kind)
			if want == "" {
				v = append(v, fmt.Sprintf("reload %d: unknown tamper kind %q", i, rr.Kind))
			} else if rr.Status != "rejected" || rr.Reason != string(want) {
				v = append(v, fmt.Sprintf("reload %d: tamper %s status=%s reason=%s, want rejected/%s",
					i, rr.Kind, rr.Status, rr.Reason, want))
			}
		}
		if rr.Serving != serving {
			v = append(v, fmt.Sprintf("reload %d (%s): serving digest %s, want %s — a rejection moved the table",
				i, rr.Kind, rr.Serving, serving))
		}
	}
	// Torn-table audit: every result's digest is either empty (chaos
	// requests, never-executed requests) or one of the good versions;
	// every executed bundle-served bench request carries one.
	for i, res := range r.Results {
		switch {
		case res.BundleDigest != "" && !good[res.BundleDigest]:
			v = append(v, fmt.Sprintf("request %d: served from unknown bundle digest %s", i, res.BundleDigest))
		case res.BundleDigest != "" && res.Req.Workload == "":
			v = append(v, fmt.Sprintf("request %d: chaos request carries bundle digest %s", i, res.BundleDigest))
		case len(r.BundleDigests) > 0 && res.Req.Workload != "" &&
			res.Status == serve.StatusOK && res.BundleDigest == "":
			v = append(v, fmt.Sprintf("request %d: bench request executed outside the bundle table", i))
		}
	}

	// Each shard's transition chain must start from closed and be
	// continuous.
	type cell struct {
		shard int
		key   string
	}
	state := make(map[cell]serve.BreakerState)
	for i, t := range r.Transitions {
		c := cell{t.Shard, t.Key}
		from := state[c]
		if from == "" {
			from = serve.BreakerClosed
		}
		if t.From != from {
			v = append(v, fmt.Sprintf("transition %d: shard %d %s from %s but cell was %s",
				i, t.Shard, t.Key, t.From, from))
		}
		state[c] = t.To
	}
	return v
}

// Render writes the deterministic text report. verbose adds the
// per-request log.
func (r *SoakReport) Render(w io.Writer, verbose bool) {
	cfg := r.Config
	fmt.Fprintf(w, "lmi-fleet soak  seed=0x%x  requests=%d  shards=%d  servers/shard=%d  queue/shard=%d\n",
		cfg.Seed, cfg.Requests, cfg.Shards, soakServers, soakQueueCapacity)
	fmt.Fprintf(w, "fleet budget: %d queued  arrival: %v\n", cfg.fleetBudget(), soakArrivalEvery)
	fmt.Fprintf(w, "retry: %d attempts, base %v, cap %v   breaker: open@%d, cooldown %v, close@%d probes\n",
		cfg.Retry.MaxAttempts, cfg.Retry.BackoffBase, cfg.Retry.BackoffMax,
		cfg.Breaker.FailThreshold, cfg.Breaker.Cooldown, cfg.Breaker.ProbeSuccesses)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fault plan (%d events):\n", len(r.Plan))
	for _, f := range r.Plan {
		fmt.Fprintf(w, "  [%12v] %s\n", f.At, f)
	}
	if len(r.BundleDigests) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "bundle versions:")
		for i, d := range r.BundleDigests {
			fmt.Fprintf(w, "  v%d=%s", i+1, shortDigest(d))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "reload events (%d):\n", len(r.Reloads))
		for _, rr := range r.Reloads {
			fmt.Fprintf(w, "  [%12v] %-20s %-8s digest=%s serving=%s",
				rr.At, rr.Kind, rr.Status, shortDigest(rr.Digest), shortDigest(rr.Serving))
			if rr.Reason != "" {
				fmt.Fprintf(w, " reason=%s", rr.Reason)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %s\n", "status", "count")
	for _, st := range []serve.Status{serve.StatusOK, serve.StatusFailed, serve.StatusExhausted,
		serve.StatusShed, serve.StatusRejected} {
		fmt.Fprintf(w, "%-12s %d\n", st, r.Counts[st])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "chaos outcomes:")
	for _, o := range []chaos.Outcome{chaos.OutcomeClean, chaos.OutcomeDetected, chaos.OutcomeTolerated,
		chaos.OutcomeMissed, chaos.OutcomeFalsePositive, chaos.OutcomeDegraded} {
		if n := r.Outcomes[o]; n > 0 {
			fmt.Fprintf(w, "  %s=%d", o, n)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "retries scheduled: %d\n", r.Retries)
	fmt.Fprintf(w, "decision records: written=%d dropped=%d\n", r.Decisions.Written, r.Decisions.Dropped)
	fmt.Fprintf(w, "fleet queue high-watermark: %d of %d\n", r.HighWater, cfg.fleetBudget())
	fmt.Fprintf(w, "virtual makespan: %v\n", r.Makespan)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "per-shard:")
	for s, sh := range r.Shards {
		fmt.Fprintf(w, "  shard %d: executed=%d\n", s, sh.Executed)
	}
	fmt.Fprintln(w)
	if len(r.Transitions) == 0 {
		fmt.Fprintln(w, "breaker transitions: none")
	} else {
		fmt.Fprintf(w, "breaker transitions (%d):\n", len(r.Transitions))
		for _, t := range r.Transitions {
			fmt.Fprintf(w, "  [%12v] shard%d %-18s %-9s -> %-9s %s\n",
				t.At, t.Shard, t.Key, t.From, t.To, t.Cause)
		}
	}
	if verbose {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "per-request log:")
		for i, res := range r.Results {
			req := res.Req
			kind := req.Kind
			if kind == "" {
				kind = chaos.KindControl
			}
			fmt.Fprintf(w, "  [%05d] %-18s %-18s seed=0x%016x status=%-9s attempts=%d class=%-9s",
				i, req.Key(), string(kind), req.Seed, res.Status, res.Attempts, res.Class)
			if res.Outcome != "" {
				fmt.Fprintf(w, " outcome=%s", res.Outcome)
			}
			if res.BundleDigest != "" {
				fmt.Fprintf(w, " bundle=%s", shortDigest(res.BundleDigest))
			}
			if res.Err != nil {
				fmt.Fprintf(w, " err=%q", res.Err)
			}
			fmt.Fprintln(w)
		}
	}
	if v := r.Violations(); len(v) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "VIOLATIONS (%d):\n", len(v))
		for _, msg := range v {
			fmt.Fprintf(w, "  %s\n", msg)
		}
	}
}
