// Package fleet is the serving core over the internal/serve executor
// and breaker: requests are sharded by a hash of (workload, mechanism,
// seed) across N simulated device workers, each owning its own
// admission queue, circuit breakers, and warm per-shard compiled-program
// cache, and load is shed on a fleet-wide queue budget. One shard is the
// single-node service. Every request emits one structured safety
// decision record — request key, shard, verdict, fault and extent-check
// counters, breaker state, retry schedule, execution tier — into a
// bounded asynchronous log sink that never blocks the serving path and
// accounts for every record it drops.
//
// Every serving decision — admission and shedding, breaker allow and
// record, classify-and-retry, finalize with counters and the decision
// record — is made by one single-threaded state machine that reads no
// clock. Two drivers step it: the live Coordinator behind cmd/lmi-serve,
// on the wall clock from its HTTP handlers and shard workers, and the
// fleet soak (FleetSoak), from a virtual-time event heap that replays a
// seeded ~10^5-request stream under burst overloads and a signed-bundle
// reload campaign, producing a report and decision log that are
// byte-identical for any -jobs value. The fleet's membership is fixed:
// no shard dies, in either driver.
package fleet

import (
	"errors"

	"lmi/internal/serve"
)

// ErrFleetOverloaded sheds a request at admission because the
// fleet-wide queue budget (summed across shards) is exhausted, even
// though the owner shard's own queue may have room. Together with the
// serve layer's sentinels it covers every disposition a fleet request
// can reach.
var ErrFleetOverloaded = errors.New("fleet: overloaded: fleet queue budget exhausted")

// TypedError reports whether err is typed at the fleet or serve layer;
// the robustness audit rejects everything else.
func TypedError(err error) bool {
	return errors.Is(err, ErrFleetOverloaded) || serve.TypedError(err)
}
