package serve

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is one circuit-breaker cell's state.
type BreakerState string

const (
	// BreakerClosed: requests flow normally; consecutive failures are
	// counted.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the cell is in cooldown; requests are rejected
	// immediately with ErrCircuitOpen.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown elapsed; single probe requests are
	// let through to test whether the cell recovered.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerConfig parameterises the per-(workload, mechanism) breaker.
type BreakerConfig struct {
	// FailThreshold opens a closed cell after this many consecutive
	// failures (default 5).
	FailThreshold int
	// Cooldown is how long an open cell rejects before letting a probe
	// through (default 2s; the soak harness interprets it in virtual
	// time).
	Cooldown time.Duration
	// ProbeSuccesses is how many consecutive successful probes close a
	// half-open cell again (default 2).
	ProbeSuccesses int
}

// WithDefaults fills zero fields (for callers outside the package —
// the fleet layer — that embed the policy in their own configs).
func (bc BreakerConfig) WithDefaults() BreakerConfig { return bc.withDefaults() }

// withDefaults fills zero fields.
func (bc BreakerConfig) withDefaults() BreakerConfig {
	if bc.FailThreshold <= 0 {
		bc.FailThreshold = 5
	}
	if bc.Cooldown <= 0 {
		bc.Cooldown = 2 * time.Second
	}
	if bc.ProbeSuccesses <= 0 {
		bc.ProbeSuccesses = 2
	}
	return bc
}

// Transition is one recorded breaker state change.
type Transition struct {
	// Key is the (workload, mechanism) cell.
	Key string `json:"key"`
	// From and To are the states.
	From BreakerState `json:"from"`
	To   BreakerState `json:"to"`
	// At is the service-relative time of the change (virtual time in
	// the soak harness, elapsed wall time in the live server).
	At time.Duration `json:"at_ns"`
	// Cause explains the change.
	Cause string `json:"cause"`
}

// breakerCell is one key's state.
type breakerCell struct {
	state     BreakerState
	streak    int // consecutive failures while closed
	openUntil time.Duration
	probe     uint64 // nonzero: the token of the half-open probe in flight
	probeOK   int    // consecutive successful probes
}

// Breaker is a per-key circuit breaker (closed → open → half-open →
// closed). Time arrives as a service-relative time.Duration so the
// same machine runs under the live clock and the soak harness's
// virtual clock; all transitions are recorded for the reports. Safe
// for concurrent use.
type Breaker struct {
	mu     sync.Mutex
	cfg    BreakerConfig
	cells  map[string]*breakerCell
	trans  []Transition
	tokens uint64 // probe-token counter; tokens are unique per breaker
}

// NewBreaker builds a breaker; zero config fields take defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), cells: make(map[string]*breakerCell)}
}

// cell returns the key's cell, creating it closed.
func (b *Breaker) cell(key string) *breakerCell {
	c := b.cells[key]
	if c == nil {
		c = &breakerCell{state: BreakerClosed}
		b.cells[key] = c
	}
	return c
}

// transition records a state change.
func (b *Breaker) transition(key string, c *breakerCell, to BreakerState, now time.Duration, cause string) {
	b.trans = append(b.trans, Transition{Key: key, From: c.state, To: to, At: now, Cause: cause})
	c.state = to
}

// newProbe mints a fresh probe token (never zero).
func (b *Breaker) newProbe() uint64 {
	b.tokens++
	return b.tokens
}

// Allow reports whether a request for key may execute at the given
// time. An open cell whose cooldown elapsed moves to half-open and
// admits exactly one probe at a time; the admitted probe is identified
// by the returned nonzero token, which the caller must hand back to
// Record. Requests admitted while the cell is closed carry token 0.
// The token is what serializes the half-open state: only the outcome of
// the probe itself can transition the cell, so a late result from a
// request admitted in an earlier closed epoch can neither close the
// cell nor clear the probing flag and let a second concurrent probe in.
func (b *Breaker) Allow(key string, now time.Duration) (bool, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cell(key)
	switch c.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if now < c.openUntil {
			return false, 0
		}
		b.transition(key, c, BreakerHalfOpen, now, "cooldown elapsed; probing")
		c.probe, c.probeOK = b.newProbe(), 0
		return true, c.probe
	case BreakerHalfOpen:
		if c.probe != 0 {
			return false, 0 // one probe in flight at a time
		}
		c.probe = b.newProbe()
		return true, c.probe
	}
	return false, 0
}

// Record folds one execution outcome for key into the breaker state.
// token must be the value Allow returned for this execution: zero for
// requests admitted while the cell was closed, the probe token for a
// half-open probe. A half-open cell ignores every record that does not
// carry its outstanding probe token — late results from earlier epochs
// must not be mistaken for the probe's verdict.
func (b *Breaker) Record(key string, now time.Duration, token uint64, success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cell(key)
	switch c.state {
	case BreakerClosed:
		if token != 0 {
			// A probe outcome can only arrive while its cell is half-open;
			// anything else is a stale token from a dead epoch.
			return
		}
		if success {
			c.streak = 0
			return
		}
		c.streak++
		if c.streak >= b.cfg.FailThreshold {
			b.transition(key, c, BreakerOpen, now,
				fmt.Sprintf("%d consecutive failures", c.streak))
			c.streak = 0
			c.openUntil = now + b.cfg.Cooldown
		}
	case BreakerHalfOpen:
		if token == 0 || token != c.probe {
			// Not the probe: a late result from a request admitted before
			// the cell opened (or a stale probe from a previous half-open
			// epoch). Only the probe's own outcome may transition the cell.
			return
		}
		c.probe = 0
		if !success {
			b.transition(key, c, BreakerOpen, now, "probe failed")
			c.openUntil = now + b.cfg.Cooldown
			c.probeOK = 0
			return
		}
		c.probeOK++
		if c.probeOK >= b.cfg.ProbeSuccesses {
			b.transition(key, c, BreakerClosed, now,
				fmt.Sprintf("%d probe successes", c.probeOK))
			c.probeOK, c.streak = 0, 0
		}
	case BreakerOpen:
		// A late result from a request admitted before the cell opened;
		// the cooldown already accounts for the failure burst.
	}
}

// State returns the current state of one cell (closed for a key that
// has never recorded anything), without allocating a full snapshot.
func (b *Breaker) State(key string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.cells[key]; c != nil {
		return c.state
	}
	return BreakerClosed
}

// Transitions returns a copy of the recorded state changes in order.
func (b *Breaker) Transitions() []Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Transition, len(b.trans))
	copy(out, b.trans)
	return out
}

// Snapshot returns the current state per key (for
// /stats and shutdown reports).
func (b *Breaker) Snapshot() map[string]BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]BreakerState, len(b.cells))
	for k, c := range b.cells {
		out[k] = c.state
	}
	return out
}
