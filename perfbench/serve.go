package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lmi/internal/bundle"
	"lmi/internal/chaos"
	"lmi/internal/fastsim"
	"lmi/internal/peval"
	"lmi/internal/runner"
	"lmi/internal/serve"
	"lmi/internal/workloads"
)

// openRPS is the open-loop arrival rate, held constant so a faster
// server shows as lower latency at the same load rather than as a
// different load. It is about a third of the capacity the closed loop
// measured for this request mix at the commit that defined the
// benchmark (about 150/s with 2 CPUs and 2 server workers). At half
// capacity about a third of the inject requests wait behind run
// requests, so the inject median sits on the edge between waiting and
// not waiting and jumped between runs by more than any usable bound.
const openRPS = 50

// injectPerCell is how many inject requests each chaos cell contributes
// to an open-loop stratum.
const injectPerCell = 20

// roundInjectPerCell is how many inject requests each chaos cell
// contributes to a closed-loop round: four strata's worth, so the inject
// phase of a round costs the server about as much CPU time as a
// second, and the per-request figure is not lost in the noise of a
// fifth of a second.
const roundInjectPerCell = 4 * injectPerCell

// openShare is the share of --seconds the open loop is planned for (a
// whole number of strata, at least one); closed-loop rounds fill the
// rest of the budget.
const openShare = 0.35

// settle is how long the benchmark lets the server go idle after a
// closed-loop phase before it reads the server's CPU time.
const settle = 50 * time.Millisecond

// serverStarts is how many times setup starts lmi-serve; setup_s is the
// median, and the last start serves the load.
const serverStarts = 3

// request is one generated request with the response it must get.
type request struct {
	class string // "run" or "inject"
	req   serve.Request
	want  response
}

// response mirrors the JSON body of lmi-serve's POST /run.
type response struct {
	Status    serve.Status  `json:"status"`
	Attempts  int           `json:"attempts"`
	Class     serve.Class   `json:"class,omitempty"`
	Outcome   chaos.Outcome `json:"outcome,omitempty"`
	Cycles    uint64        `json:"cycles,omitempty"`
	ECChecked uint64        `json:"ec_checked,omitempty"`
	ECElided  uint64        `json:"ec_elided,omitempty"`
	Detail    string        `json:"detail,omitempty"`
	Error     string        `json:"error,omitempty"`
	Bundle    string        `json:"bundle_digest,omitempty"`
}

// rng is a splitmix64 stream: the request list and arrival schedule
// are a pure function of the seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// stratum is one shuffled copy of the request mix: every run cell
// (Table V workload x Fig. 12 mechanism) once, and perCell freshly
// seeded requests per inject cell. Holding the mix fixed per
// stratum keeps the service-time distribution identical across seeds;
// the seed moves only the order, the chaos seeds and the arrivals.
func stratum(g *rng, ref *reference, perCell int) []request {
	var out []request
	for _, c := range ref.Run {
		out = append(out, request{class: "run", req: serve.Request{Workload: c.Workload, Mechanism: c.Mechanism, Seed: g.next()}})
	}
	for _, c := range ref.InjectCells {
		for i := 0; i < perCell; i++ {
			out = append(out, request{class: "inject", req: serve.Request{Mechanism: c.Mechanism, Kind: c.Kind, Seed: g.next()}})
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(g.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// expectations fills in every request's expected response without the
// serving path. Run cells come from the pinned reference (cycle-tier
// functional fields, compiled-tier cycle estimate). Inject requests
// replay their chaos trial directly through chaos.Injector on both
// tiers: the outcome must be success-class and agree across tiers with
// the fault presence and fault detail (schedule-dependent locations
// masked, as the repository's tier differential does), and the
// extent-check counters must agree too when no fault halted the launch.
// The response is then expected to match the compiled-tier replay
// exactly, since that is the tier the server runs (a halted launch's
// counters and its cycle estimate are properties of that tier's
// schedule). The compiled-tier trials are the chaos.trial spans.
// Disagreements are returned as mismatches, one per request.
func expectations(o opts, ref *reference, reqs []request, tr *tracer) ([]string, error) {
	runs := map[string]runRef{}
	for _, c := range ref.Run {
		runs[c.Workload+"/"+c.Mechanism] = c
	}
	cycleInj, err := chaos.NewInjector(chaosMechanisms)
	if err != nil {
		return nil, err
	}
	compInj, err := chaos.NewInjector(chaosMechanisms)
	if err != nil {
		return nil, err
	}
	compInj.Tier = fastsim.TierCompiled
	problems := make([]string, len(reqs))
	errs := runner.ForEach(context.Background(), len(reqs), o.nproc, func(i int) error {
		rq := &reqs[i]
		if rq.class == "run" {
			c := runs[rq.req.Workload+"/"+rq.req.Mechanism]
			rq.want = response{Status: serve.StatusOK, Attempts: 1, Class: serve.ClassOK,
				Cycles: c.Cycles, ECChecked: c.ECChecked, ECElided: c.ECElided}
			if c.FromBundle {
				rq.want.Bundle = ref.BundleDigest
			}
			return nil
		}
		cfg := chaos.TrialConfig(1)
		cyc, err := cycleInj.RunTrial(context.Background(), rq.req.Mechanism, rq.req.Kind, rq.req.Seed, cfg)
		if err != nil {
			return err
		}
		var comp chaos.Trial
		tr.do("chaos.trial", string(rq.req.Kind), 0, uint64(i+1), func(uint64) {
			comp, err = compInj.RunTrial(context.Background(), rq.req.Mechanism, rq.req.Kind, rq.req.Seed, cfg)
		})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("inject %s/%s seed %#x", rq.req.Mechanism, rq.req.Kind, rq.req.Seed)
		switch {
		case cyc.Outcome != comp.Outcome || cyc.HasFault != comp.HasFault ||
			maskSchedule(cyc.Detail) != maskSchedule(comp.Detail) ||
			!cyc.HasFault && (cyc.ECChecked != comp.ECChecked || cyc.ECElided != comp.ECElided):
			problems[i] = fmt.Sprintf("%s: tiers disagree: cycle %s %d/%d %q, compiled %s %d/%d %q", label,
				cyc.Outcome, cyc.ECChecked, cyc.ECElided, cyc.Detail, comp.Outcome, comp.ECChecked, comp.ECElided, comp.Detail)
		case !successClass(cyc.Outcome):
			problems[i] = fmt.Sprintf("%s: reference outcome %s is not success-class", label, cyc.Outcome)
		}
		rq.want = response{Status: serve.StatusOK, Attempts: 1, Class: serve.ClassOK, Outcome: cyc.Outcome,
			Cycles: comp.Cycles, ECChecked: comp.ECChecked, ECElided: comp.ECElided, Detail: comp.Detail}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var out []string
	for _, p := range problems {
		if p != "" {
			out = append(out, p)
		}
	}
	return out, nil
}

// scheduleRe matches the schedule-dependent parts of a fault detail:
// which lane won the halt-on-fault race, and the addresses it faulted
// on.
var scheduleRe = regexp.MustCompile(`SM\d+ warp\d+ lane\d+|0x[0-9a-fA-F]+|extent=\d+`)

func maskSchedule(detail string) string { return scheduleRe.ReplaceAllString(detail, "*") }

// server is one lmi-serve child process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	done   chan error
}

// startServer execs lmi-serve on the compiled tier with residual
// serving, nproc workers and the signed bundle, and returns once
// /readyz answers 200; the returned duration is the CPU time the server
// used from exec to ready, which includes the fail-closed bundle
// verification.
func startServer(o opts, bundlePath string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s := &server{addr: addr, done: make(chan error, 1)}
	s.cmd = exec.Command(o.serveBin, "-addr", addr, "-tier", "compiled", "-specialize",
		"-jobs", strconv.Itoa(o.nproc), "-bundle", bundlePath,
		"-bundle-pub", hex.EncodeToString(fixtureKey.Public().(ed25519.PublicKey)))
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even if it dies early.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("lmi-serve exited before ready: %v: %s", err, s.stderr.String())
		default:
		}
		if resp, err := probe.Get("http://" + addr + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				cpu, err := procCPU(s.cmd.Process.Pid)
				if err != nil {
					s.stop()
					return nil, 0, err
				}
				return s, cpu, nil
			}
		}
		if time.Since(start) > 60*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("lmi-serve not ready after 60s: %s", s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM (SIGKILL after 30s), waits for it
// to exit, and returns its peak resident set in MiB.
func (s *server) stop() (float64, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		err = <-s.done
	}
	rss := 0.0
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("lmi-serve: %v: %s", err, s.stderr.String())
	}
	return rss, nil
}

// stats reads the server's /stats counters.
func (s *server) stats(c *http.Client) (serve.Stats, error) {
	var body struct {
		Stats serve.Stats `json:"stats"`
	}
	resp, err := c.Get("http://" + s.addr + "/stats")
	if err != nil {
		return body.Stats, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Stats, err
}

// outcome is one request's observed result.
type outcome struct {
	code   int
	resp   response
	err    error
	sent   time.Time
	done   time.Time
	sched  time.Time
	late   time.Duration
	spanID uint64
}

// post sends one request over the shared client.
func post(c *http.Client, addr string, req serve.Request) (int, response, error) {
	var resp response
	body, err := json.Marshal(req)
	if err != nil {
		return 0, resp, err
	}
	hr, err := c.Post("http://"+addr+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, resp, err
	}
	defer hr.Body.Close()
	err = json.NewDecoder(hr.Body).Decode(&resp)
	return hr.StatusCode, resp, err
}

// openLoop sends reqs at their scheduled offsets from start over nproc
// connections. The dispatcher enqueues each request when it falls due;
// senders take them in order, so a request waiting for a free
// connection is timed from its due time.
func openLoop(o opts, c *http.Client, addr string, reqs []request, offsets []time.Duration, tr *tracer) []outcome {
	outs := make([]outcome, len(reqs))
	// Buffered for the whole list: the dispatcher must never block on a
	// busy sender, or its lateness would absorb the server's queueing.
	due := make(chan int, len(reqs))
	start := time.Now().Add(20 * time.Millisecond)
	go func() {
		for i, off := range offsets {
			at := start.Add(off)
			time.Sleep(time.Until(at))
			outs[i].sched = at
			outs[i].late = time.Since(at)
			due <- i
		}
		close(due)
	}()
	var wg sync.WaitGroup
	for w := 0; w < o.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				out := &outs[i]
				out.sent = time.Now()
				out.code, out.resp, out.err = post(c, addr, reqs[i].req)
				out.done = time.Now()
				out.spanID = tr.record("loadgen.request", reqs[i].class, 0, uint64(i+1), out.sched, out.done)
				tr.record("serve.http", reqs[i].class, out.spanID, uint64(i+1), out.sent, out.done)
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop has nproc clients send reqs back to back until the list
// runs out, and returns their outcomes.
func closedLoop(o opts, c *http.Client, addr string, reqs []request) []outcome {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				out := &outs[i]
				out.sent = time.Now()
				out.code, out.resp, out.err = post(c, addr, reqs[i].req)
				out.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return outs
}

// checkResponse compares one response with its expectation: HTTP code,
// status, class, attempts, outcome, extent-check counters, cycle
// estimate, bundle digest, and for inject requests the trial detail.
// Wall-clock-dependent state (caches, queue depth, throughput) is not
// part of the response and never compared.
func checkResponse(r *run, rq request, out outcome) {
	r.Attempted++
	if out.err != nil || out.code != http.StatusOK || out.resp.Status != serve.StatusOK {
		r.Failed++
	}
	if out.err != nil {
		r.mismatch("serve %s %+v: transport: %v", rq.class, rq.req, out.err)
		return
	}
	got := out.resp
	got.Error = ""
	if rq.class == "run" {
		got.Detail = "" // "completed in <cycles> cycles": the cycles are compared
	}
	if out.code != http.StatusOK || got != rq.want {
		r.mismatch("serve %s %+v: HTTP %d %+v (error %q), want 200 %+v", rq.class, rq.req, out.code, got, out.resp.Error, rq.want)
	}
}

// runServeOpen measures lmi-serve under open-loop load (latency, for
// the summary and the traced run), then its CPU cost per request class
// in closed-loop rounds: each round sends one stratum's run requests,
// then its inject requests (roundInjectPerCell per cell), over nproc connections, and reads the
// server's CPU time around each class. Heavy is the run class, light
// the inject class; each is the server's CPU time per request over all
// rounds, which the host's steal time does not stretch.
func runServeOpen(o opts, ref *reference, tr *tracer) (*run, error) {
	if o.serveBin == "" {
		return nil, fmt.Errorf("--lmi-serve is required")
	}
	r := &run{}
	g := &rng{s: o.seed}

	// Inputs, built before setup timing: the signed bundle and the
	// open-loop request list and schedule.
	b, err := buildReleaseBundle(o.nproc)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "serve-open-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bundlePath := filepath.Join(dir, "bundle.json")
	if err := b.WriteFile(bundlePath); err != nil {
		return nil, err
	}
	perStratum := len(ref.Run) + injectPerCell*len(ref.InjectCells)
	nOpen := int(math.Max(1, math.Round(o.seconds*openShare*openRPS/float64(perStratum))))
	var openReqs []request
	for i := 0; i < nOpen; i++ {
		openReqs = append(openReqs, stratum(g, ref, injectPerCell)...)
	}
	offsets := make([]time.Duration, len(openReqs))
	t := 0.0
	for i := range offsets {
		t += -math.Log(1-g.float()) / openRPS
		offsets[i] = time.Duration(t * float64(time.Second))
	}

	// Setup: exec to /readyz, serverStarts times; the last one serves.
	var setups []time.Duration
	var srv *server
	for i := 0; i < serverStarts; i++ {
		s, d, err := startServer(o, bundlePath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < serverStarts-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	client := &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: o.nproc, MaxIdleConnsPerHost: o.nproc, DisableCompression: true}}
	defer client.CloseIdleConnections()

	start := time.Now()
	openOuts := openLoop(o, client, srv.addr, openReqs, offsets, tr)
	openWall := time.Since(start)

	// Closed-loop rounds until the budget is spent (at least one). The
	// rounds are drawn from the seed in order, so round k is the same
	// for a seed however many rounds a run makes.
	var closedReqs []request
	var closedOuts []outcome
	cpuPerReq := map[string][]time.Duration{} // per round, for the summary
	cpu, sent := map[string]time.Duration{}, map[string]int{}
	closedStart := time.Now()
	for len(closedReqs) == 0 || time.Since(start) < time.Duration(o.seconds*float64(time.Second)) {
		byClass := map[string][]request{}
		for _, rq := range stratum(g, ref, roundInjectPerCell) {
			byClass[rq.class] = append(byClass[rq.class], rq)
		}
		for _, class := range []string{"run", "inject"} {
			reqs := byClass[class]
			c0, err := procCPU(srv.cmd.Process.Pid)
			if err != nil {
				return nil, err
			}
			outs := closedLoop(o, client, srv.addr, reqs)
			// Let a garbage collection the last requests started finish,
			// so its work is charged to their class.
			time.Sleep(settle)
			c1, err := procCPU(srv.cmd.Process.Pid)
			if err != nil {
				return nil, err
			}
			cpuPerReq[class] = append(cpuPerReq[class], (c1-c0)/time.Duration(len(reqs)))
			cpu[class] += c1 - c0
			sent[class] += len(reqs)
			closedReqs, closedOuts = append(closedReqs, reqs...), append(closedOuts, outs...)
		}
	}
	closedWall := time.Since(closedStart)
	st, statsErr := srv.stats(client)
	rss, stopErr := srv.stop()
	if statsErr != nil {
		return nil, statsErr
	}
	if stopErr != nil {
		return nil, stopErr
	}

	// Expectations for every request sent, computed without the serving
	// path, then every response checked against them.
	all := append(append([]request(nil), openReqs...), closedReqs...)
	problems, err := expectations(o, ref, all, tr)
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		r.mismatch("%s", p)
	}
	lat := map[string][]time.Duration{}
	for i, out := range openOuts {
		checkResponse(r, all[i], out)
		lat[all[i].class] = append(lat[all[i].class], out.done.Sub(out.sched))
	}
	for i, out := range closedOuts {
		checkResponse(r, all[len(openReqs)+i], out)
	}
	fmt.Printf("serve-open: %d open-loop requests at %d/s over %.2fs (%d run, %d inject; latency p50 %.2f and %.2f ms), "+
		"%d closed-loop rounds, %d requests over %.2fs; server CPU ms per request %.3f (run) and %.3f (inject)\n",
		len(openReqs), openRPS, openWall.Seconds(), len(lat["run"]), len(lat["inject"]),
		quantile(ms(lat["run"]), 0.5), quantile(ms(lat["inject"]), 0.5),
		len(cpuPerReq["run"]), len(closedReqs), closedWall.Seconds(), ms(cpuPerReq["run"]), ms(cpuPerReq["inject"]))

	if tr != nil {
		for _, class := range []string{"run", "inject"} {
			r.set("loadgen.latency_ms."+class+".p50", "ms", quantile(ms(lat[class]), 0.5))
			r.set("loadgen.latency_ms."+class+".p99", "ms", quantile(ms(lat[class]), 0.99))
		}
		return r, traceServe(o, r, b, all[:len(openReqs)], openOuts, openWall, st, tr)
	}
	r.set("setup_s", "s", median(setups).Seconds())
	r.set("peak_rss_mb", "MB", rss)
	perReq := func(class string) float64 {
		return cpu[class].Seconds() * 1000 / float64(sent[class])
	}
	r.set("heavy_cpu_ms", "ms", perReq("run"))
	r.set("light_cpu_ms", "ms", perReq("inject"))
	return r, nil
}

// traceServe derives the per-layer serve-open metrics. It replays the
// open-loop request list in process through serve.Executor.Execute on
// nproc goroutines (the server's worker count) against the same
// verified bundle; a request's wait is its open-loop latency minus its
// execute time. It also times one direct compiled-tier launch per run
// cell and one in-process bundle.Verify, and compares an untraced and a
// traced sequential replay of the inject requests for the tracing
// overhead.
func traceServe(o opts, r *run, b *bundle.Bundle, reqs []request, outs []outcome, openWall time.Duration, st serve.Stats, tr *tracer) error {
	var v *bundle.Verified
	var err error
	tr.do("bundle.verify", "", 0, 0, func(uint64) { v, err = bundle.Verify(b, fixtureKey.Public().(ed25519.PublicKey)) })
	if err != nil {
		return err
	}
	ex, err := serve.NewExecutorTier(1, fastsim.TierCompiled)
	if err != nil {
		return err
	}
	ex.SetSpecialize(true)
	if err := ex.SetBundle(v); err != nil {
		return err
	}
	execs := make([]time.Duration, len(reqs))
	runner.ForEach(context.Background(), len(reqs), o.nproc, func(i int) error {
		rq := reqs[i]
		execs[i] = tr.do("serve.execute", rq.class, 0, uint64(i+1), func(uint64) {
			ex.Execute(context.Background(), rq.req, serve.AttemptSeed(rq.req.Seed, 0))
		})
		return nil
	})
	exec, wait := map[string][]time.Duration{}, map[string][]time.Duration{}
	var busy time.Duration
	for i, rq := range reqs {
		exec[rq.class] = append(exec[rq.class], execs[i])
		wait[rq.class] = append(wait[rq.class], outs[i].done.Sub(outs[i].sched)-execs[i])
		busy += execs[i]
	}
	for _, class := range []string{"run", "inject"} {
		r.set("serve.exec_ms."+class+".p50", "ms", quantile(ms(exec[class]), 0.5))
		r.set("serve.exec_ms."+class+".p99", "ms", quantile(ms(exec[class]), 0.99))
		r.set("serve.wait_ms."+class+".p50", "ms", quantile(ms(wait[class]), 0.5))
		r.set("serve.wait_ms."+class+".p99", "ms", quantile(ms(wait[class]), 0.99))
	}
	r.set("serve.busy_share", "share", busy.Seconds()/(float64(o.nproc)*openWall.Seconds()))

	// One direct launch per run cell: the stratum holds each cell once,
	// so the median over cells is the median over run requests.
	var launches []time.Duration
	for _, s := range workloads.All() {
		for _, m := range runMechanisms {
			variant := variantOf(m)
			grid := s.LaunchGrid(variant)
			prog, err := s.Compile(variant)
			if err != nil {
				return err
			}
			if ve, ok := v.Lookup(s.Name, m); ok {
				prog = ve.Prog
				if ve.SpecProg != nil && peval.Match(*ve.SpecContract, s.N, grid, s.Block) {
					prog = ve.SpecProg
				}
			}
			cp, err := fastsim.Compile(prog)
			if err != nil {
				return err
			}
			launches = append(launches, tr.do("fastsim.launch", m, 0, 0, func(uint64) {
				_, err = workloads.RunProgramTierAtCtx(context.Background(), s, variant, chaos.TrialConfig(1), grid, fastsim.TierCompiled, prog, cp)
			}))
			if err != nil {
				return err
			}
		}
	}
	r.set("fastsim.launch_ms.run.p50", "ms", quantile(ms(launches), 0.5))
	r.set("chaos.trial_ms.p50", "ms", quantile(ms(tr.durations("chaos.trial", "")), 0.5))
	r.set("bundle.verify_s", "s", tr.total("bundle.verify", "").Seconds())
	r.set("serve.shed", "count", float64(st.Shed))
	r.set("serve.rejected", "count", float64(st.Rejected))
	r.set("serve.retries", "count", float64(st.Retries))
	r.set("serve.queue_high_water", "count", float64(st.HighWater))
	var late []time.Duration
	for _, out := range outs {
		late = append(late, out.late)
	}
	r.set("loadgen.late_ms.p99", "ms", quantile(ms(late), 0.99))

	replay := func(t *tracer) time.Duration {
		return timed(func() {
			for i, rq := range reqs {
				if rq.class == "inject" {
					t.do("serve.execute.replay", rq.class, 0, uint64(i+1), func(uint64) {
						ex.Execute(context.Background(), rq.req, serve.AttemptSeed(rq.req.Seed, 0))
					})
				}
			}
		})
	}
	plain := replay(nil)
	traced := replay(tr)
	r.set("trace.overhead_share", "share", traced.Seconds()/plain.Seconds()-1)
	return nil
}
