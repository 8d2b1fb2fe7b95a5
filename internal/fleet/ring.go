package fleet

import (
	"hash/fnv"
	"sort"

	"lmi/internal/chaos"
	"lmi/internal/serve"
)

// ringSalt separates the ring's point hashes from every other
// splitmix64 stream in the tree.
const ringSalt = 0x51A4D1D

// ringPoint is one virtual node: a hash position owned by a shard.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over shard indices with virtual
// nodes. Ownership is the first point clockwise from the request hash
// whose shard is alive: when a shard dies, only the keys it owned move
// (each to the next alive shard on the ring), and when it rejoins,
// exactly those keys move back — bounded redistribution in both
// directions. The ring itself is immutable; liveness is passed per
// lookup so the live coordinator and the virtual-time soak share it.
type Ring struct {
	points []ringPoint
	shards int
}

// NewRing builds a ring of shards * replicas virtual nodes (replicas
// <= 0 means 16). Point positions are a pure function of (shard,
// replica), so every driver at the same shard count sees the same
// ring.
func NewRing(shards, replicas int) *Ring {
	if replicas <= 0 {
		replicas = 16
	}
	r := &Ring{points: make([]ringPoint, 0, shards*replicas), shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < replicas; v++ {
			h := chaos.MixSeed(ringSalt, uint64(s)<<20|uint64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Owner returns the alive shard owning hash h: the first point at or
// clockwise from h whose shard is alive. alive[i] reports shard i's
// liveness; -1 when no shard is alive.
func (r *Ring) Owner(h uint64, alive []bool) int {
	n := len(r.points)
	if n == 0 {
		return -1
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if p.shard < len(alive) && alive[p.shard] {
			return p.shard
		}
	}
	return -1
}

// RequestHash places a request on the ring: FNV-1a over its breaker
// key (workload/mechanism) mixed with its seed, so retries of one
// request land on the same shard while a (workload, mechanism) pair's
// traffic still spreads across the fleet by seed.
func RequestHash(req serve.Request) uint64 {
	f := fnv.New64a()
	f.Write([]byte(req.Key()))
	return chaos.MixSeed(f.Sum64(), req.Seed)
}
