// Command lmi-serve hosts the simulation stack as a hardened
// long-running service, or replays the chaos soak through the same
// serving state machine. Both run on one serving core, internal/fleet:
// the live service is a fleet.Coordinator (-shards 1, the default, is
// the single-node case) and -soak is fleet.FleetSoak.
//
// Usage:
//
//	lmi-serve -addr :8080                 # serve HTTP (POST /run /reload, GET /healthz /readyz /stats)
//	lmi-serve -jobs 4 -queue 64           # 4 workers per shard, 64-deep shard queue
//	lmi-serve -shards 4                   # four simulated device shards behind one listener
//	lmi-serve -soak                       # 200-request seeded chaos soak, virtual time
//	lmi-serve -soak -seed 7 -requests 500 # bigger soak, chosen seed
//	lmi-serve -soak -jobs 1               # single precompute worker (same report)
//	lmi-serve -soak -v                    # plus the per-request log
//	lmi-serve -soak -shards 4             # four-shard soak under burst overloads
//	lmi-serve -tier compiled              # execute requests on the compiled tier
//	lmi-serve -decision-log d.jsonl       # per-request safety decision records (JSONL)
//	lmi-serve -bundle b.json -bundle-pub <hex>  # serve signed compiled artifacts
//	lmi-serve -specialize                 # serve contract-specialized residuals on contract match
//
// Admission sheds at the fleet budget, 3/4 of the summed shard queues
// (48 of -queue 64 on one shard), and /readyz reports 503 from the same
// depth on.
//
// Bundle-backed serving is fail-closed: the bundle is verified (signature,
// digests, and every static pass re-run against the embedded
// certificates) before the listener opens, and a rejected bundle is a
// nonzero exit, not a degraded server. SIGHUP re-reads the -bundle file
// and hot-reloads it through the same verification; a rejected reload
// leaves the serving table untouched. POST /reload does the same with
// the request body. The trusted key (-bundle-pub, 32-byte hex, @file, or
// $LMI_BUNDLE_PUB) is the only key accepted — there is no
// trust-on-first-use.
//
// The soak report and decision log depend only on -seed, -requests and
// -shards: they are byte-identical for any -jobs value, and the soak
// exits nonzero if any robustness property is violated (an untyped
// per-request error, a missing result, an escaped engine panic, an
// inconsistent breaker log, a missing decision record). The live server drains gracefully
// on SIGTERM/SIGINT: it stops accepting, finishes everything in
// flight, and flushes a JSON shutdown report to stdout.
package main

import (
	"bufio"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/cliutil"
	"lmi/internal/fastsim"
	"lmi/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for serve mode")
	soak := flag.Bool("soak", false, "run the chaos soak instead of serving")
	seed := flag.Uint64("seed", 1, "soak master seed")
	requests := flag.Int("requests", 200, "soak request count")
	jobs := flag.Int("jobs", 0, "workers per shard, or soak precompute workers, >= 1 (omit for GOMAXPROCS or $LMI_JOBS)")
	queue := flag.Int("queue", 64, "admission queue capacity per shard")
	sms := flag.Int("sms", 1, "simulated SM count per request")
	shards := flag.Int("shards", 1, "simulated device shards (1 = the single-node service)")
	decisionLog := flag.String("decision-log", "", "write per-request safety decision records (JSONL) to this file")
	logBuffer := flag.Int("log-buffer", 256, "decision-log sink buffer; overflow drops records, never blocks")
	tierName := flag.String("tier", fastsim.TierCycle.String(),
		"execution tier requests simulate on: cycle (timing reference) or compiled (fast functional)")
	bundlePath := flag.String("bundle", "", "serve compiled programs from this signed bundle file (SIGHUP re-reads and hot-reloads it)")
	bundlePubFlag := flag.String("bundle-pub", "", "trusted bundle-signing public key (32-byte hex, @file, or $LMI_BUNDLE_PUB); required with -bundle")
	specialize := flag.Bool("specialize", false,
		"serve contract-specialized residual programs for launches matching an entry's concrete contract (general-program fallback on mismatch)")
	verbose := flag.Bool("v", false, "verbose: per-request soak log / serve request log")
	flag.Parse()
	if err := cliutil.Validate("lmi-serve", flag.CommandLine,
		cliutil.Check{Name: "requests", Value: *requests},
		cliutil.Check{Name: "queue", Value: *queue},
		cliutil.Check{Name: "sms", Value: *sms},
		cliutil.Check{Name: "shards", Value: *shards},
		cliutil.Check{Name: "log-buffer", Value: *logBuffer},
		cliutil.Check{Name: "jobs", Value: *jobs, AutoZero: true}); err != nil {
		os.Exit(cliutil.Usage("lmi-serve", err))
	}
	if err := cliutil.ValidateEnum("lmi-serve",
		cliutil.EnumCheck{Name: "tier", Value: *tierName, Allowed: fastsim.TierNames()}); err != nil {
		os.Exit(cliutil.Usage("lmi-serve", err))
	}
	if err := cliutil.ValidateKeys("lmi-serve",
		cliutil.KeyCheck{Name: "bundle-pub", Value: *bundlePubFlag, Bytes: 32, Required: *bundlePath != ""}); err != nil {
		os.Exit(cliutil.Usage("lmi-serve", err))
	}
	tier, _ := fastsim.ParseTier(*tierName)

	// Fail closed before anything serves: parse the trusted key and
	// verify the bundle now, so a bad artifact is a startup error, never
	// a live server with an empty table.
	var pub ed25519.PublicKey
	if *bundlePath != "" {
		var err error
		pub, err = bundle.ParsePublicKey(*bundlePubFlag)
		if err != nil {
			os.Exit(cliutil.Usage("lmi-serve", cliutil.Errorf("lmi-serve", "-bundle-pub: %v", err)))
		}
	}

	if *soak {
		os.Exit(runFleetSoak(*seed, *requests, *shards, *jobs, *sms, tier, *decisionLog, *verbose))
	}
	os.Exit(runFleetServe(*addr, *shards, *jobs, *queue, *sms, tier, *specialize, *decisionLog, *logBuffer, *bundlePath, pub, *verbose))
}

// loadBundle re-reads the -bundle file and installs it through reload,
// which verifies the whole chain of trust before any table swap. Used
// both for the fail-closed startup load and for SIGHUP hot reloads.
func loadBundle(path string, reload func(*bundle.Bundle) error) error {
	b, err := bundle.ReadFile(path)
	if err != nil {
		return err
	}
	return reload(b)
}

// openDecisionLog opens the decision-log destination ("" = discard).
// The returned close flushes and reports the first error.
func openDecisionLog(path string) (io.Writer, func() error, error) {
	if path == "" {
		return io.Discard, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func() error {
		ferr := bw.Flush()
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		return ferr
	}, nil
}

// runFleetSoak replays the seeded stream through the fleet's serving
// machine on the virtual timeline, under scripted burst overloads;
// nonzero when the robustness contract is violated.
func runFleetSoak(seed uint64, requests, shards, jobs, sms int, tier fastsim.Tier, logPath string, verbose bool) int {
	logW, logClose, err := openDecisionLog(logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmi-serve: decision log: %v\n", err)
		return 1
	}
	rep, err := fleet.FleetSoak(context.Background(), fleet.SoakConfig{
		Seed:     seed,
		Requests: requests,
		Shards:   shards,
		Workers:  jobs,
		SMs:      sms,
		Tier:     tier,
	}, logW)
	if cerr := logClose(); err == nil && cerr != nil {
		err = fmt.Errorf("decision log: %w", cerr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmi-serve: fleet soak: %v\n", err)
		return 1
	}
	rep.Render(os.Stdout, verbose)
	if v := rep.Violations(); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "lmi-serve: fleet soak violated %d robustness properties\n", len(v))
		return 1
	}
	return 0
}

// runFleetServe hosts the fleet coordinator (one shard is the single
// node) over HTTP until SIGTERM/SIGINT, then drains and flushes the
// shutdown report. With a bundle, startup verification is fail-closed
// and SIGHUP hot-reloads the bundle file across every shard.
func runFleetServe(addr string, shards, jobs, queue, sms int, tier fastsim.Tier, specialize bool, logPath string, logBuffer int, bundlePath string, pub ed25519.PublicKey, verbose bool) int {
	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	logW, logClose, err := openDecisionLog(logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmi-serve: decision log: %v\n", err)
		return 1
	}
	c, err := fleet.NewCoordinator(fleet.Config{
		Shards:          shards,
		WorkersPerShard: jobs,
		QueueCapacity:   queue,
		SMs:             sms,
		Tier:            tier,
		Specialize:      specialize,
		DecisionLog:     logW,
		LogBuffer:       logBuffer,
		BundlePub:       pub,
		Logf:            logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmi-serve: %v\n", err)
		return 1
	}
	if bundlePath != "" {
		if err := loadBundle(bundlePath, c.Reload); err != nil {
			fmt.Fprintf(os.Stderr, "lmi-serve: bundle rejected: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "lmi-serve: serving bundle %s\n", c.BundleDigest())
	}
	hs := &http.Server{Addr: addr, Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "lmi-serve: %d shard(s) listening on %s\n", shards, addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	hup := make(chan os.Signal, 1)
	if bundlePath != "" {
		signal.Notify(hup, syscall.SIGHUP)
	}
drain:
	for {
		select {
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "lmi-serve: %v: draining\n", sig)
			break drain
		case <-hup:
			if err := loadBundle(bundlePath, c.Reload); err != nil {
				fmt.Fprintf(os.Stderr, "lmi-serve: reload rejected (still serving %s): %v\n", c.BundleDigest(), err)
			} else {
				fmt.Fprintf(os.Stderr, "lmi-serve: reloaded bundle %s\n", c.BundleDigest())
			}
		case err := <-errc:
			fmt.Fprintf(os.Stderr, "lmi-serve: listener failed: %v\n", err)
			return 1
		}
	}

	// Stop the listener first (no new connections), then drain the
	// shard queues and worker pools, then report.
	shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = hs.Shutdown(shctx)
	rep := c.Shutdown(shctx)
	if cerr := logClose(); cerr != nil {
		fmt.Fprintf(os.Stderr, "lmi-serve: decision log: %v\n", cerr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "lmi-serve: rendering shutdown report: %v\n", err)
		return 1
	}
	return 0
}
