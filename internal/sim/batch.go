package sim

import (
	"sync"

	"byzcons/internal/metrics"
)

// BatchConfig configures one batched execution: Instances independent
// protocol instances multiplexed over the same simulated deployment of N
// processors with a common faulty set and a shared adversary.
//
// Each instance gets its own barrier network, meter and deterministic
// randomness (derived from Seed and the instance id), so instances are fully
// independent executions that happen to run concurrently — the model of a
// pipelined deployment where every synchronous round carries the traffic of
// all in-flight instances. The shared adversary sees every instance's steps
// (tagged with ExchangeCtx/SyncCtx.Instance) but is invoked under a batch-wide
// lock, so stateful adversaries need no locking of their own.
type BatchConfig struct {
	N         int
	Faulty    []int     // processor ids controlled by the adversary (all instances)
	Adversary Adversary // shared across instances; calls are serialized
	Seed      int64     // per-instance seeds are derived deterministically
	Instances int       // number of concurrent instances (0 or 1 = single)
	// DegradePeers, when > 0, enables graceful degradation in backends with
	// real channels (internal/node) and is its fault budget: a round missing
	// frames only from peers whose channels are known down completes with
	// synthesized ⊥ frames, and a node whose own run fails on a
	// peer-attributed fault yields a missing value instead of failing the
	// whole instance — as long as, at each node, the degraded peers and the
	// Faulty processors together number at most DegradePeers, and across
	// nodes some DegradePeers processors — among them the Faulty ones and
	// every node whose own run failed — touch every degraded channel. The
	// simulator's shared-memory barrier has no channels to lose, so it
	// ignores the field.
	DegradePeers int
}

// InstanceResult is the outcome of one instance of a batched execution.
type InstanceResult struct {
	// Values[i] is the value returned by processor i's body for this instance.
	Values []any
	// Meter holds this instance's own traffic and round accounting.
	Meter *metrics.Meter
	Err   error
}

// BatchResult aggregates a batched execution.
type BatchResult struct {
	Instances []InstanceResult
	// Rounds is the pipelined round count of the batch: instances advance
	// through their synchronous rounds concurrently, so the deployment needs
	// the maximum (not the sum) of the per-instance round counts.
	Rounds int64
	// Bits is the total protocol traffic summed over all instances.
	Bits int64
	// PeersDown lists (sorted, deduplicated) the processors charged with the
	// channels observed down during the batch: the smallest fault covers'
	// members within DegradePeers (a partitioned node alone, both ends of a
	// cut link), else every observed-down peer. The simulator, with no
	// channels to lose, leaves it empty.
	PeersDown []int
	// DegradedPeers lists (sorted, deduplicated) the peers whose missing
	// frames some round completed against with synthesized ⊥ values under
	// BatchConfig.DegradePeers. Filled by the networked cluster backend; empty
	// under the simulator.
	DegradedPeers []int
	// Err is the first per-instance error, if any instance failed.
	Err error
}

// LockAdversary wraps an adversary so that concurrent Rework calls are
// serialized, keeping stateful adversary implementations race-clean without
// requiring their own locking. RunBatch applies it to the adversary shared
// by a batch's concurrently finalizing instance networks; the networked
// cluster (internal/node) applies it to the adversary shared by its nodes
// and instances.
func LockAdversary(adv Adversary) Adversary {
	return &lockedAdversary{adv: adv}
}

// lockedAdversary is the wrapper behind LockAdversary.
type lockedAdversary struct {
	mu  sync.Mutex
	adv Adversary
}

func (l *lockedAdversary) ReworkExchange(ctx *ExchangeCtx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.adv.ReworkExchange(ctx)
}

func (l *lockedAdversary) ReworkSync(ctx *SyncCtx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.adv.ReworkSync(ctx)
}

// InstanceSeed derives a distinct deterministic seed for each instance of a
// batch (instance 0 keeps the base seed, so a 1-instance batch reproduces the
// equivalent Run bit for bit). Exported so alternative backends
// (internal/node) derive identical per-instance randomness.
func InstanceSeed(seed int64, inst int) int64 {
	if inst == 0 {
		return seed
	}
	return seed + int64(inst)*0x61C8864680B583EB
}

// RunBatch executes body(inst, p) at each of cfg.N processors for each of
// cfg.Instances independent instances, multiplexed concurrently over the
// deployment. Results are deterministic per instance for a given Seed as long
// as the adversary's behaviour depends only on its per-step context (every
// adversary in the bundled gallery does); an adversary carrying mutable state
// across steps observes instances in scheduling order.
func RunBatch(cfg BatchConfig, body func(inst int, p *Proc) any) *BatchResult {
	b := cfg.Instances
	if b < 1 {
		b = 1
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = Passive{}
	}
	shared := LockAdversary(adv)

	res := &BatchResult{Instances: make([]InstanceResult, b)}
	var wg sync.WaitGroup
	for k := 0; k < b; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := runInstance(RunConfig{
				N:         cfg.N,
				Faulty:    cfg.Faulty,
				Adversary: shared,
				Seed:      InstanceSeed(cfg.Seed, k),
			}, k, func(p *Proc) any { return body(k, p) })
			res.Instances[k] = InstanceResult{Values: r.Values, Meter: r.Meter, Err: r.Err}
		}(k)
	}
	wg.Wait()

	for k := range res.Instances {
		ir := &res.Instances[k]
		res.Bits += ir.Meter.TotalBits()
		if r := ir.Meter.Rounds(); r > res.Rounds {
			res.Rounds = r
		}
		if ir.Err != nil && res.Err == nil {
			res.Err = ir.Err
		}
	}
	return res
}
