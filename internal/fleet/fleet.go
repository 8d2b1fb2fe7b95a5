// Package fleet is the serving core over the internal/serve state
// machines: requests are consistent-hash sharded by (workload,
// mechanism, seed) across N simulated device workers, each owning its
// own admission queue, circuit breakers, and warm per-shard
// compiled-program cache, and load is shed on a fleet-wide queue
// budget. One shard is the single-node service. Every request emits one
// structured safety decision record — request key, shard, verdict,
// fault and extent-check counters, breaker state, retry schedule,
// execution tier — into a bounded asynchronous log sink that never
// blocks the serving path and accounts for every record it drops.
//
// The same state machines run in two drivers: the live Coordinator
// behind cmd/lmi-serve with real clocks and real goroutines, and a
// virtual-time fleet soak (FleetSoak) that replays a seeded
// ~10^5-request stream with scripted shard kills, deterministic
// requeues of the dead shard's work (bounded redistribution — only its
// keys move), rejoins, and burst overloads, producing a report and
// decision log that are byte-identical for any -jobs value.
package fleet

import (
	"errors"

	"lmi/internal/serve"
)

// Typed fleet-level failures; together with the serve layer's
// sentinels these cover every disposition a fleet request can reach.
var (
	// ErrShardLost abandons a soak request after its shard died and the
	// bounded requeue budget was exhausted (or no shard is alive to
	// requeue to). It is the fleet's only "lost work" disposition, and
	// it is always typed — a request can fail because shards kept
	// dying under it, but it can never silently vanish.
	ErrShardLost = errors.New("fleet: shard lost: requeue budget exhausted")
	// ErrFleetOverloaded sheds a request at admission because the
	// fleet-wide queue budget (summed across shards) is exhausted, even
	// though the owner shard's own queue may have room.
	ErrFleetOverloaded = errors.New("fleet: overloaded: fleet queue budget exhausted")
)

// StatusLost is the soak's disposition for a request abandoned with
// ErrShardLost; it extends the serve layer's status vocabulary.
const StatusLost serve.Status = "lost"

// TypedError reports whether err is typed at the fleet or serve layer;
// the robustness audit rejects everything else.
func TypedError(err error) bool {
	return errors.Is(err, ErrShardLost) || errors.Is(err, ErrFleetOverloaded) || serve.TypedError(err)
}
