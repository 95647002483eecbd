package byzcons

import (
	"context"
	"fmt"

	"byzcons/internal/wire"
)

// MaxShards bounds FleetConfig.Shards: the shard id shares the frame
// header's instance field with the per-shard epoch counter, and 1024 shards
// leave over two million epochs per shard before the composed id would stop
// encoding.
const MaxShards = wire.MaxShards

// ShardOf returns the shard a key routes to among shards groups — the
// fleet's deterministic partitioner, exported so clients and routing layers
// can compute placement without a Fleet handle. It is a pure function of
// (key, shards): stable across processes, runs and architectures (FNV-1a
// over the key bytes, finished with a 64-bit avalanche mix so small moduli
// see all of the hash, then reduced mod shards). A single shard short-cuts
// to 0 without hashing.
func ShardOf(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-1a prime
	}
	// splitmix64 finisher: FNV-1a alone mixes weakly into the low bits that
	// a small modulus keeps.
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return int(h % uint64(shards))
}

// FleetConfig configures a sharded consensus fleet: Shards independent
// consensus groups — each with the SessionConfig's protocol parameters,
// batch geometry and flush policy — sharing one persistent transport mesh.
//
// The embedded SessionConfig applies per shard, with two deviations: Seed
// seeds shard 0 directly and derives the other shards' seeds (so a
// one-shard fleet is bit-identical to a Session), and OnFlush is invoked
// for every shard's cycles, concurrently across shards; FlushReport.Shard
// names the shard. Chaos needs Shards == 1: a chaos schedule anchors on
// shard 0's flush cycle clock, which says nothing about when the other,
// concurrently flushing shards' cycles begin.
type FleetConfig struct {
	SessionConfig
	// Shards is the number of independent consensus groups (0 = 1; at most
	// MaxShards). Proposals are hash-partitioned over them by key (ShardOf),
	// and each shard batches and flushes independently: under load, shards'
	// flush cycles run concurrently over the one shared mesh.
	Shards int
}

// withDefaults fills the zero-value fields.
func (cfg FleetConfig) withDefaults() FleetConfig {
	cfg.SessionConfig = cfg.SessionConfig.withDefaults()
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	return cfg
}

// Validate reports whether the fleet configuration is runnable; OpenFleet
// calls it.
func (cfg FleetConfig) Validate() error {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 || cfg.Shards > MaxShards {
		return fmt.Errorf("byzcons: Shards must be in [1,%d], got %d", MaxShards, cfg.Shards)
	}
	if cfg.Chaos != "" && cfg.Shards > 1 {
		return fmt.Errorf("byzcons: Chaos is not supported on a Fleet (cycle-anchored schedules are ambiguous across shards); run the chaos scenario against a Session")
	}
	return cfg.SessionConfig.Validate()
}

// FleetStats is the fleet's cumulative accounting: the per-shard engine
// stats and their sum.
type FleetStats struct {
	// Shards is the fleet's shard count.
	Shards int
	// Aggregate sums the per-shard stats.
	Aggregate SessionStats
	// PerShard holds each shard's own accounting, indexed by shard id.
	PerShard []SessionStats
}

// Fleet is a sharded consensus service: S independent consensus groups over
// one persistent n-node transport mesh, with proposals hash-partitioned by
// key. Each shard coalesces its own batches and flushes on its own policy
// triggers, and — because run serialization is per shard — shards' flush
// cycles execute concurrently, scaling aggregate throughput with shards on
// a multi-core host while the mesh is dialed exactly once.
//
//	f, err := byzcons.OpenFleet(byzcons.FleetConfig{
//		SessionConfig: byzcons.SessionConfig{Config: byzcons.Config{N: 4, T: 1}},
//		Shards:        4,
//	})
//	d, err := f.Propose(ctx, []byte("user:17"), []byte("command"))
//	...
//	f.Drain(ctx)
//	f.Close()
type Fleet struct {
	*deployment
}

// OpenFleet validates cfg, dials the shared transport mesh (networked
// backends dial eagerly — one dial for all shards) and starts every shard's
// background flusher.
func OpenFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	d, err := open(cfg.SessionConfig, cfg.Shards, nil)
	if err != nil {
		return nil, err
	}
	return &Fleet{d}, nil
}

// Propose submits one keyed value to the key's shard and blocks until its
// consensus decision is available or ctx is done — the sharded analogue of
// Session.Propose. The key only selects the shard (ShardOf); the decided
// value is the proposed value.
func (f *Fleet) Propose(ctx context.Context, key, value []byte) (Decision, error) {
	p, err := f.ProposeAsync(ctx, key, value)
	return await(ctx, p, err)
}

// ProposeAsync submits one keyed value to the key's shard and returns a
// handle on its eventual decision without waiting. It never blocks on
// consensus progress; the value is copied.
func (f *Fleet) ProposeAsync(ctx context.Context, key, value []byte) (*Pending, error) {
	return f.submit(ctx, f.ShardFor(key), value)
}

// ShardFor returns the shard the key routes to in this fleet.
func (f *Fleet) ShardFor(key []byte) int { return ShardOf(key, len(f.shards)) }

// NumShards returns the fleet's shard count.
func (f *Fleet) NumShards() int { return len(f.shards) }

// Stats returns the fleet's cumulative accounting: per-shard engine stats
// and their aggregate.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{Shards: len(f.shards), PerShard: make([]SessionStats, len(f.shards))}
	for i, sh := range f.shards {
		s := sh.eng.Stats()
		st.PerShard[i] = s
		st.Aggregate.Submitted += s.Submitted
		st.Aggregate.Decided += s.Decided
		st.Aggregate.Defaulted += s.Defaulted
		st.Aggregate.Failed += s.Failed
		st.Aggregate.Cycles += s.Cycles
		st.Aggregate.Bits += s.Bits
		st.Aggregate.Rounds += s.Rounds
	}
	return st
}

// ShardSnapshot returns a point-in-time copy of one shard's engine metrics.
func (f *Fleet) ShardSnapshot(shard int) MetricsSnapshot {
	return f.shards[shard].reg.Snapshot()
}
