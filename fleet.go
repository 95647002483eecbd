package byzcons

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"byzcons/internal/engine"
	"byzcons/internal/node"
	"byzcons/internal/obs"
	"byzcons/internal/transport"
	"byzcons/internal/wire"
)

// MaxShards bounds FleetConfig.Shards: the shard id shares the frame
// header's instance field with the per-shard instance counter, and 1024
// shards leave over two million instances per shard before the composed id
// would stop encoding.
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

// shardSeed derives shard s's engine seed from the configured seed. Shard 0
// keeps the seed unchanged, so a one-shard fleet runs bit-identically to a
// Session (and to the simulator) under the same configuration; later shards
// step by a large odd constant so their cycle seed streams never collide.
func shardSeed(seed int64, shard int) int64 {
	return seed + int64(shard)*0x6A09E667F3BCC909
}

// FleetConfig configures a sharded consensus fleet: Shards independent
// consensus groups — each with the SessionConfig's protocol parameters,
// batch geometry and flush policy — sharing one persistent transport mesh.
//
// The embedded SessionConfig applies per shard, with two deviations: Seed
// seeds shard 0 directly and derives the other shards' seeds (so a
// one-shard fleet is bit-identical to a Session), and OnFlush is invoked
// for every shard's cycles (use Reports for shard attribution). Chaos is
// not supported on fleets: a chaos schedule anchors on one session's flush
// cycle clock, which is ambiguous across concurrently flushing shards —
// run chaos scenarios against a Session.
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
	if cfg.Chaos != "" {
		return fmt.Errorf("byzcons: Chaos is not supported on a Fleet (cycle-anchored schedules are ambiguous across shards); run the chaos scenario against a Session")
	}
	return cfg.SessionConfig.Validate()
}

// ShardReport is one shard's flush-cycle report on the fleet's merged
// Reports stream: the engine report plus the shard that ran the cycle.
type ShardReport struct {
	// Shard identifies the consensus group the cycle ran in.
	Shard int
	FlushReport
}

// FleetStats is the fleet's cumulative accounting: the per-shard engine
// stats and their sum.
type FleetStats struct {
	// Shards is the fleet's shard count.
	Shards int
	// Aggregate sums the per-shard stats (ReportsDropped additionally
	// counts reports the merged fleet stream dropped).
	Aggregate SessionStats
	// PerShard holds each shard's own accounting, indexed by shard id.
	PerShard []SessionStats
}

// fleetShard is one consensus group: its engine and its private metrics
// registry (per-shard registries keep gauges and histograms honest — a
// shared registry would interleave concurrent shards' samples; the fleet
// merges them on demand).
type fleetShard struct {
	eng *engine.Engine
	reg *obs.Registry
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
	cfg     FleetConfig
	shards  []*fleetShard
	cluster *node.Cluster // nil when backed by the simulator
	reg     *obs.Registry // fleet-level metrics: transport and node layers
	tracer  *obs.Tracer   // nil unless tracing was configured

	reports    chan ShardReport
	repDropped atomic.Int64
	fwd        sync.WaitGroup
}

// OpenFleet validates cfg, dials the shared transport mesh (networked
// backends dial eagerly — one dial for all shards) and starts every shard's
// background flusher.
func OpenFleet(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if cfg.TraceRing > 0 || cfg.TraceSink != nil {
		ring := cfg.TraceRing
		if ring == 0 {
			ring = obs.DefaultTraceRing
		}
		tracer = obs.NewTracer(ring, cfg.TraceSink)
		tracer.SetEnabled(true)
		reg.Func("trace_dropped", tracer.Dropped)
	}
	factory, err := cfg.Transport.factoryFor(cfg.PeerRetry.policy(), reg)
	if err != nil {
		return nil, err
	}
	return openFleet(cfg, reg, tracer, factory)
}

// openFleet finishes construction from a built transport factory; internal
// tests inject a fault-wrapped factory here to drive cross-shard fault
// isolation deterministically.
func openFleet(cfg FleetConfig, reg *obs.Registry, tracer *obs.Tracer, factory transport.Factory) (*Fleet, error) {
	var cluster *node.Cluster
	if factory != nil {
		cluster = node.NewCluster(factory)
		cluster.Shards = cfg.Shards
		cluster.StallTimeout = cfg.PeerRetry.StallTimeout
		cluster.Obs = reg
		cluster.Tracer = tracer
		if err := cluster.Connect(cfg.N); err != nil {
			return nil, err
		}
		reg.Func("transport_conns", func() int64 { return cluster.WireStats().Conns })
		reg.Func("transport_reconnects", func() int64 { return cluster.WireStats().Reconnects })
		reg.Func("transport_peer_flaps", func() int64 { return cluster.WireStats().PeerFlaps })
		reg.Func("transport_frames_sent", func() int64 { return cluster.WireStats().FramesSent })
		reg.Func("transport_writes", func() int64 { return cluster.WireStats().Writes })
		reg.Func("transport_bytes_sent", func() int64 { return cluster.WireStats().BytesSent })
	}

	repBuf := cfg.ReportBuffer
	if repBuf == 0 {
		repBuf = 16
	}
	f := &Fleet{
		cfg:     cfg,
		cluster: cluster,
		reg:     reg,
		tracer:  tracer,
		reports: make(chan ShardReport, repBuf),
	}
	for s := 0; s < cfg.Shards; s++ {
		var runner engine.Runner // nil = simulator
		if cluster != nil {
			runner = cluster.ShardRunner(s)
		}
		sreg := obs.NewRegistry()
		eng, err := engine.New(engine.Config{
			Consensus:    cfg.consensusParams(),
			Runner:       runner,
			Seed:         shardSeed(cfg.Seed, s),
			Faulty:       cfg.Scenario.Faulty,
			Adversary:    cfg.Scenario.Behavior,
			Degrade:      cfg.Degrade,
			BatchValues:  cfg.BatchValues,
			BatchBytes:   cfg.BatchBytes,
			Instances:    cfg.Instances,
			Policy:       cfg.Policy.normalized(cfg.BatchValues, cfg.Instances),
			ReportBuffer: cfg.ReportBuffer,
			OnCycle:      cfg.OnFlush,
			Metrics:      sreg,
			Tracer:       tracer,
		})
		if err != nil {
			for _, sh := range f.shards {
				sh.eng.Close()
			}
			if cluster != nil {
				cluster.Close()
			}
			return nil, err
		}
		f.shards = append(f.shards, &fleetShard{eng: eng, reg: sreg})
	}

	// Forward every shard's report stream onto the merged, shard-tagged
	// stream. The merged stream stays lossy like a Session's: a lagging (or
	// absent) consumer drops reports instead of stalling any shard's
	// flushes, so the forwarders always retire once the engines close.
	for s, sh := range f.shards {
		f.fwd.Add(1)
		go func(s int, ch <-chan FlushReport) {
			defer f.fwd.Done()
			for rep := range ch {
				select {
				case f.reports <- ShardReport{Shard: s, FlushReport: rep}:
				default:
					f.repDropped.Add(1)
				}
			}
		}(s, sh.eng.Reports())
	}
	go func() {
		f.fwd.Wait()
		close(f.reports)
	}()
	return f, nil
}

// Propose submits one keyed value to the key's shard and blocks until its
// consensus decision is available or ctx is done — the sharded analogue of
// Session.Propose. The key only selects the shard (ShardOf); the decided
// value is the proposed value.
func (f *Fleet) Propose(ctx context.Context, key, value []byte) (Decision, error) {
	p, err := f.ProposeAsync(ctx, key, value)
	if err != nil {
		return Decision{Batch: -1, Err: err}, err
	}
	d := p.Wait(ctx)
	return d, d.Err
}

// ProposeAsync submits one keyed value to the key's shard and returns a
// handle on its eventual decision without waiting. It never blocks on
// consensus progress; the value is copied.
func (f *Fleet) ProposeAsync(ctx context.Context, key, value []byte) (*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.shards[ShardOf(key, len(f.shards))].eng.Submit(value)
}

// ShardFor returns the shard the key routes to in this fleet.
func (f *Fleet) ShardFor(key []byte) int { return ShardOf(key, len(f.shards)) }

// NumShards returns the fleet's shard count.
func (f *Fleet) NumShards() int { return len(f.shards) }

// Flush drains every shard's queue synchronously — shards flush
// concurrently — and returns their aggregated report (Cycle == -1) with the
// first shard failure, if any.
func (f *Fleet) Flush() (*FlushReport, error) {
	agg := &FlushReport{Cycle: -1}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, sh := range f.shards {
		wg.Add(1)
		go func(sh *fleetShard) {
			defer wg.Done()
			rep, err := sh.eng.Flush()
			mu.Lock()
			defer mu.Unlock()
			if rep != nil {
				mergeInto(agg, rep)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(sh)
	}
	wg.Wait()
	return agg, firstErr
}

// mergeInto folds one shard's aggregated report into the fleet aggregate,
// mirroring the engine's own cross-cycle merge semantics.
func mergeInto(agg, rep *FlushReport) {
	agg.Batches = append(agg.Batches, rep.Batches...)
	agg.Values += rep.Values
	agg.Bits += rep.Bits
	agg.Rounds += rep.Rounds
	agg.PeersDown = mergePeerIDs(agg.PeersDown, rep.PeersDown)
	agg.Degraded = agg.Degraded || rep.Degraded
	agg.DegradedPeers = mergePeerIDs(agg.DegradedPeers, rep.DegradedPeers)
	agg.Timing.Cycle += rep.Timing.Cycle
	agg.Timing.Match += rep.Timing.Match
	agg.Timing.Broadcast += rep.Timing.Broadcast
	agg.Timing.RS += rep.Timing.RS
	agg.Timing.Diagnosis += rep.Timing.Diagnosis
	agg.Timing.Decisions += rep.Timing.Decisions
	agg.Timing.DecisionP50 = maxDuration(agg.Timing.DecisionP50, rep.Timing.DecisionP50)
	agg.Timing.DecisionP90 = maxDuration(agg.Timing.DecisionP90, rep.Timing.DecisionP90)
	agg.Timing.DecisionP99 = maxDuration(agg.Timing.DecisionP99, rep.Timing.DecisionP99)
	agg.Timing.DecisionMax = maxDuration(agg.Timing.DecisionMax, rep.Timing.DecisionMax)
	if agg.Err == nil {
		agg.Err = rep.Err
	}
}

// Drain flushes everything queued on every shard and waits until those
// cycles committed, or until ctx is done. Shards drain concurrently; the
// first shard error is returned.
func (f *Fleet) Drain(ctx context.Context) error {
	errs := make(chan error, len(f.shards))
	for _, sh := range f.shards {
		go func(sh *fleetShard) { errs <- sh.eng.Drain(ctx) }(sh)
	}
	var first error
	for range f.shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close shuts the fleet down: every shard's engine closes (proposals still
// queued fail promptly with ErrClosed, in-flight cycles complete), the
// merged Reports stream closes once the per-shard streams drained, and the
// shared mesh is torn down. Close is idempotent.
func (f *Fleet) Close() error {
	var firstErr error
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, sh := range f.shards {
		wg.Add(1)
		go func(sh *fleetShard) {
			defer wg.Done()
			if err := sh.eng.Close(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	if f.cluster != nil {
		if err := f.cluster.Close(); firstErr == nil {
			firstErr = err
		}
	}
	f.fwd.Wait()
	return firstErr
}

// Reports returns the merged per-cycle report stream: every shard's flush
// cycles, tagged with their shard id, in each shard's commit order (cycles
// of different shards interleave in flush-completion order). The stream is
// buffered and lossy; Stats().Aggregate.ReportsDropped counts what a
// lagging consumer missed. Closed by Close.
func (f *Fleet) Reports() <-chan ShardReport { return f.reports }

// PendingCount returns the number of proposals queued across all shards.
func (f *Fleet) PendingCount() int {
	total := 0
	for _, sh := range f.shards {
		total += sh.eng.PendingCount()
	}
	return total
}

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
		st.Aggregate.Batches += s.Batches
		st.Aggregate.Cycles += s.Cycles
		st.Aggregate.Bits += s.Bits
		st.Aggregate.Rounds += s.Rounds
		st.Aggregate.ReportsDropped += s.ReportsDropped
	}
	st.Aggregate.ReportsDropped += int(f.repDropped.Load())
	return st
}

// Snapshot returns the fleet's aggregate metrics: the fleet-level registry
// (transport and node-layer metrics of the shared mesh) merged with every
// shard's engine registry. Counters and gauges sum across shards;
// histogram quantiles keep the worst shard's estimate (quantiles do not
// compose). Use ShardSnapshot for one shard's unmerged view.
func (f *Fleet) Snapshot() MetricsSnapshot {
	snap := f.reg.Snapshot()
	for _, sh := range f.shards {
		snap.Merge(sh.reg.Snapshot())
	}
	return snap
}

// ShardSnapshot returns a point-in-time copy of one shard's engine metrics.
func (f *Fleet) ShardSnapshot(shard int) MetricsSnapshot {
	return f.shards[shard].reg.Snapshot()
}

// WriteMetrics writes the aggregate snapshot as one "name value" line per
// metric, sorted by name — the fleet's text exposition.
func (f *Fleet) WriteMetrics(w io.Writer) error { return f.Snapshot().WriteText(w) }

// TraceEvents returns the buffered protocol trace (nil when tracing was not
// configured). All shards emit into the one ring, so the trace shows the
// interleaving of their cycles.
func (f *Fleet) TraceEvents() []TraceEvent { return f.tracer.Events() }

// TraceDropped reports how many trace events were overwritten because the
// ring was full.
func (f *Fleet) TraceDropped() int64 { return f.tracer.Dropped() }

// WireStats returns the cumulative encoded on-wire traffic of the fleet's
// shared mesh (zero when backed by the simulator). One mesh carries every
// shard, so Conns stays flat at n(n-1) however many shards flush.
func (f *Fleet) WireStats() WireStats {
	if f.cluster == nil {
		return WireStats{}
	}
	return f.cluster.WireStats()
}

// MeshDials reports how many times the fleet dialed a transport mesh:
// always 1 for a networked fleet whatever the shard count (the shards share
// the mesh), 0 for the simulator backend.
func (f *Fleet) MeshDials() int {
	if f.cluster == nil {
		return 0
	}
	return f.cluster.MeshDials()
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// mergePeerIDs unions two sorted peer-id lists.
func mergePeerIDs(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]bool, len(a)+len(b))
	for _, p := range a {
		seen[p] = true
	}
	out := append([]int(nil), a...)
	for _, p := range b {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}
