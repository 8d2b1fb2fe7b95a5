package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"lmi/internal/serve"
)

// Decision is one request's structured safety decision record: what
// the fleet decided about the request (verdict + typed error), where
// it ran (shard, tier), what the mechanism observed (fault count,
// extent-check counters, chaos outcome), and what the serving policies
// did along the way (retry schedule, breaker state). One record is
// emitted per request, at its final disposition.
type Decision struct {
	// Seq is the request's admission order (in the soak, its index in
	// the stream).
	Seq int `json:"seq"`
	// Key is the breaker cell: workload/mechanism.
	Key string `json:"key"`
	// Kind is the chaos injection kind ("" for plain benchmark runs).
	Kind string `json:"kind,omitempty"`
	// Seed is the request seed, rendered in hex (uint64 seeds exceed
	// JSON's float53-safe integer range).
	Seed string `json:"seed"`
	// Shard is the shard that produced the final verdict (-1 when the
	// request never reached a shard: shed).
	Shard int `json:"shard"`
	// Status and Class are the final disposition and its retry class.
	Status string `json:"status"`
	Class  string `json:"class,omitempty"`
	// Outcome is the chaos classification when an attempt executed.
	Outcome string `json:"outcome,omitempty"`
	// Attempts counts execution attempts.
	Attempts int `json:"attempts"`
	// Cycles, ECChecked, ECElided, Faults are the last attempt's kernel
	// statistics (extent checks taken vs statically elided, safety
	// fault records).
	Cycles    uint64 `json:"cycles,omitempty"`
	ECChecked uint64 `json:"ec_checked"`
	ECElided  uint64 `json:"ec_elided"`
	Faults    int    `json:"faults"`
	// Breaker is the request's cell state on its final shard at
	// decision time ("" when the request never reached a shard).
	Breaker string `json:"breaker,omitempty"`
	// RetryNS is the deterministic backoff schedule actually consumed:
	// the delay before attempt k+1, for every retry made.
	RetryNS []int64 `json:"retry_ns,omitempty"`
	// Tier is the execution tier ("" for the default cycle simulator,
	// matching the runner's omit-empty convention).
	Tier string `json:"tier,omitempty"`
	// Bundle is the digest of the verified bundle that served the last
	// attempt's program ("" when the shard compiled in-process) — the
	// per-request provenance link to the signed artifact.
	Bundle string `json:"bundle_digest,omitempty"`
	// Error is the final typed error ("" on success).
	Error string `json:"error,omitempty"`
}

// SeedString renders a request seed for decision records.
func SeedString(seed uint64) string { return fmt.Sprintf("0x%016x", seed) }

// SinkStats is a sink counter snapshot.
type SinkStats struct {
	Written uint64 `json:"written"`
	Dropped uint64 `json:"dropped"`
}

// Sink is the bounded asynchronous decision-log sink: Offer never
// blocks — a record either enters the bounded buffer or is dropped and
// counted. A single drain goroutine writes accepted records as JSONL
// in acceptance order; Close flushes everything accepted and returns
// the first write error. The serving path is therefore isolated from
// log-sink backpressure: a wedged log writer costs records (visibly,
// via Dropped), never latency.
type Sink struct {
	ch   chan Decision
	done chan struct{}
	w    io.Writer

	mu      sync.Mutex
	closed  bool
	written uint64
	dropped uint64
	werr    error
}

// NewSink builds a sink over w with the given buffer capacity
// (<= 0 means 256) and starts its drain goroutine.
func NewSink(w io.Writer, buffer int) *Sink {
	if buffer <= 0 {
		buffer = 256
	}
	s := &Sink{ch: make(chan Decision, buffer), done: make(chan struct{}), w: w}
	go s.drain()
	return s
}

func (s *Sink) drain() {
	defer close(s.done)
	enc := json.NewEncoder(s.w)
	for d := range s.ch {
		if err := enc.Encode(d); err != nil {
			s.mu.Lock()
			if s.werr == nil {
				s.werr = err
			}
			s.dropped++
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		s.written++
		s.mu.Unlock()
	}
}

// Offer submits one record without ever blocking. It reports whether
// the record was accepted; a refusal (buffer full or sink closed) is
// counted in Dropped.
func (s *Sink) Offer(d Decision) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.dropped++
		return false
	}
	select {
	case s.ch <- d:
		return true
	default:
		s.dropped++
		return false
	}
}

// Close stops accepting, drains every accepted record to the writer,
// and returns the first write error (nil when every accepted record
// hit the writer). Safe to call more than once.
func (s *Sink) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.ch)
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

// Stats snapshots the written/dropped counters.
func (s *Sink) Stats() SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SinkStats{Written: s.written, Dropped: s.dropped}
}

// decisionFrom assembles the record for a finalized result.
func decisionFrom(seq int, res serve.Result, shard int,
	breaker serve.BreakerState, retry serve.RetryConfig, tier string) Decision {
	d := Decision{
		Seq:       seq,
		Key:       res.Req.Key(),
		Kind:      string(res.Req.Kind),
		Seed:      SeedString(res.Req.Seed),
		Shard:     shard,
		Status:    string(res.Status),
		Class:     string(res.Class),
		Outcome:   string(res.Outcome),
		Attempts:  res.Attempts,
		Cycles:    res.Cycles,
		ECChecked: res.ECChecked,
		ECElided:  res.ECElided,
		Faults:    res.Faults,
		Breaker:   string(breaker),
		Tier:      tier,
		Bundle:    res.BundleDigest,
	}
	for a := 0; a+1 < res.Attempts; a++ {
		d.RetryNS = append(d.RetryNS, int64(retry.Delay(res.Req.Seed, a)))
	}
	if res.Err != nil {
		d.Error = res.Err.Error()
	}
	return d
}
