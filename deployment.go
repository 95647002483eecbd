package byzcons

import (
	"context"
	"fmt"
	"io"
	"sync"

	"byzcons/internal/chaos"
	"byzcons/internal/engine"
	"byzcons/internal/node"
	"byzcons/internal/obs"
	"byzcons/internal/transport"
)

// shard is one consensus group: its engine and its private metrics registry
// (per-shard registries keep gauges and histograms honest — a shared
// registry would interleave concurrent shards' samples; Snapshot merges them
// on demand).
type shard struct {
	eng *engine.Engine
	reg *obs.Registry
}

// deployment is the one runtime behind both public handles: some number of
// consensus groups over one persistent mesh. A Session is a deployment with
// one shard, a Fleet one with FleetConfig.Shards; every method the two
// surfaces share is written here once and reached by embedding.
type deployment struct {
	shards  []*shard
	cluster *node.Cluster // nil when backed by the simulator
	reg     *obs.Registry // mesh-level metrics: transport, node layer, tracer
	tracer  *obs.Tracer   // nil unless tracing was configured
	chaos   *chaos.Engine // nil unless a chaos schedule was configured
}

// open builds a deployment of the given shard count from a validated
// configuration: it dials the transport mesh (networked backends dial
// eagerly, so transport failures surface here, not at the first flush) and
// starts every shard's background flusher. A non-nil inject replaces the
// factory cfg.Transport selects; internal tests pass a fault-wrapped factory
// through it.
func open(cfg SessionConfig, shards int, inject transport.Factory) (*deployment, error) {
	cfg = cfg.withDefaults()
	d := &deployment{reg: obs.NewRegistry()}
	if cfg.TraceRing > 0 || cfg.TraceSink != nil {
		ring := cfg.TraceRing
		if ring == 0 {
			ring = obs.DefaultTraceRing
		}
		d.tracer = obs.NewTracer(ring, cfg.TraceSink)
		d.tracer.SetEnabled(true)
		d.reg.Func("trace_dropped", d.tracer.Dropped)
	}
	factory := inject
	if factory == nil {
		var err error
		if factory, err = cfg.Transport.factoryFor(d.reg); err != nil {
			return nil, err
		}
	}
	// The chaos layer wraps the transport factory before the mesh is dialed:
	// the schedule's events drive the wrapper's injection surface (and the
	// cluster's crash API), and its seed drives every injected jitter stream.
	var sched chaos.Schedule
	var faulty *transport.FaultyFactory
	if cfg.Chaos != "" {
		var err error
		if sched, err = chaos.Parse(cfg.Chaos); err != nil {
			return nil, fmt.Errorf("byzcons: %w", err)
		}
		faulty = &transport.FaultyFactory{Inner: factory, Seed: sched.Seed}
		factory = faulty
	}
	if factory != nil {
		c, err := dialCluster(factory, cfg.N, shards, d.reg, d.tracer)
		if err != nil {
			return nil, err
		}
		d.cluster = c
		// Read-through gauges over the mesh's cumulative wire accounting,
		// so one /metrics scrape carries the transport alongside the engine.
		for _, g := range []struct {
			name string
			read func(WireStats) int64
		}{
			{"transport_conns", func(ws WireStats) int64 { return ws.Conns }},
			{"transport_reconnects", func(ws WireStats) int64 { return ws.Reconnects }},
			{"transport_peer_flaps", func(ws WireStats) int64 { return ws.PeerFlaps }},
			{"transport_frames_sent", func(ws WireStats) int64 { return ws.FramesSent }},
			{"transport_writes", func(ws WireStats) int64 { return ws.Writes }},
			{"transport_bytes_sent", func(ws WireStats) int64 { return ws.BytesSent }},
		} {
			d.reg.Func(g.name, func() int64 { return g.read(c.WireStats()) })
		}
	}
	if faulty != nil {
		d.chaos = chaos.New(sched, faulty, d.cluster, d.tracer)
	}
	for s := 0; s < shards; s++ {
		var runner engine.Runner // nil = simulator
		if d.cluster != nil {
			runner = d.cluster.ShardRunner(s)
		}
		// FlushReport = engine.Report: the hook stamps the shard on each
		// cycle's report and passes it to OnFlush. A chaos schedule anchors
		// on shard 0's cycle clock, chained behind the hook: the user sees a
		// cycle's report before the next cycle's faults fire.
		onCycle := func(r FlushReport) {
			r.Shard = s
			if cfg.OnFlush != nil {
				cfg.OnFlush(r)
			}
			if d.chaos != nil && s == 0 {
				d.chaos.OnCycle(r.Cycle)
			}
		}
		sreg := obs.NewRegistry()
		eng, err := engine.New(engine.Config{
			Consensus:   cfg.consensusParams(),
			Runner:      runner,
			Seed:        shardSeed(cfg.Seed, s),
			Faulty:      cfg.Scenario.Faulty,
			Adversary:   cfg.Scenario.Behavior,
			BatchValues: cfg.BatchValues,
			BatchBytes:  cfg.BatchBytes,
			Instances:   cfg.Instances,
			Policy:      cfg.Policy.normalized(cfg.BatchValues, cfg.Instances),
			OnCycle:     onCycle,
			Metrics:     sreg,
			Tracer:      d.tracer,
		})
		if err != nil {
			d.Close()
			return nil, err
		}
		d.shards = append(d.shards, &shard{eng: eng, reg: sreg})
	}
	if d.chaos != nil {
		d.chaos.Start()
	}
	return d, nil
}

// shardSeed derives shard s's engine seed from the configured seed. Shard 0
// keeps the seed unchanged, so a Session — and a one-shard fleet — runs
// bit-identically to the simulator under the same configuration; later
// shards step by a large odd constant so their cycle seed streams never
// collide.
func shardSeed(seed int64, shard int) int64 {
	return seed + int64(shard)*0x6A09E667F3BCC909
}

// submit queues one value on a shard. It never blocks on consensus progress
// — the value only joins the queue, so ctx only gates entry — and the value
// is copied.
func (d *deployment) submit(ctx context.Context, s int, value []byte) (*Pending, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.shards[s].eng.Submit(value)
}

// await turns a submit result into Propose's blocking contract.
func await(ctx context.Context, p *Pending, err error) (Decision, error) {
	if err != nil {
		return Decision{Batch: -1, Err: err}, err
	}
	dec := p.Wait(ctx)
	return dec, dec.Err
}

// eachShard runs fn on every shard — concurrently when there is more than
// one — and returns the first error in shard order.
func (d *deployment) eachShard(fn func(s int, sh *shard) error) error {
	if len(d.shards) == 1 {
		return fn(0, d.shards[0])
	}
	errs := make([]error, len(d.shards))
	var wg sync.WaitGroup
	for s, sh := range d.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = fn(s, sh)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Drain flushes everything queued (on every shard, concurrently) and waits
// until those cycles committed, or until ctx is done: after a nil return,
// every proposal accepted before Drain was called has resolved. It is the
// manual flush next to the background policy, for callers that want
// explicit batch boundaries; each cycle it runs reports through OnFlush.
// The error is ErrClosed after Close, the first shard's first failed cycle,
// or ctx.Err(). Cancellation abandons only the wait; the flushing runs to
// completion in the background.
func (d *deployment) Drain(ctx context.Context) error {
	return d.eachShard(func(_ int, sh *shard) error { return sh.eng.Drain(ctx) })
}

// Close shuts the deployment down: further proposals are rejected with
// ErrClosed, proposals still queued fail promptly with ErrClosed (their Wait
// callers unblock — Close never strands a Pending), a flush cycle already in
// flight completes with real decisions (no OnFlush call runs after Close
// returns), and the transport mesh is torn down. Close is idempotent.
// Callers that want queued work decided instead of failed should Drain
// first.
func (d *deployment) Close() error {
	if d.chaos != nil {
		// Stop injecting before tearing anything down: a wall-clock fault
		// firing into a closing mesh would register as teardown noise.
		d.chaos.Stop()
	}
	err := d.eachShard(func(_ int, sh *shard) error { return sh.eng.Close() })
	if d.cluster != nil {
		if cErr := d.cluster.Close(); err == nil {
			err = cErr
		}
	}
	return err
}

// PendingCount returns the number of proposals queued for the next flush
// cycle, summed over shards.
func (d *deployment) PendingCount() int {
	total := 0
	for _, sh := range d.shards {
		total += sh.eng.PendingCount()
	}
	return total
}

// Snapshot returns a point-in-time copy of the runtime metrics in one view:
// the mesh's transport and node-layer metrics merged with every shard's
// engine registry — counters (flush triggers, per-phase wall-clock totals),
// gauges (queue and inbox depth, transport connections) and
// latency histograms (queue wait, flush-cycle duration, per-proposal
// decision latency, sampled socket writes), each histogram with
// count/sum/max and p50/p90/p99 estimates. Across shards counters and gauges
// sum and histograms add their buckets, so a fleet's quantiles are those of
// all shards' samples together. Taking a snapshot never blocks the hot path:
// values are read through atomics while recording continues.
func (d *deployment) Snapshot() MetricsSnapshot {
	snap := d.reg.Snapshot()
	for _, sh := range d.shards {
		snap.Merge(sh.reg.Snapshot())
	}
	return snap
}

// WriteMetrics writes the Snapshot as one "name value" line per metric,
// sorted by name — the text exposition behind the debug endpoint's /metrics
// page.
func (d *deployment) WriteMetrics(w io.Writer) error { return d.Snapshot().WriteText(w) }

// TraceEvents returns the buffered protocol trace, oldest event first — up
// to SessionConfig.TraceRing events; older ones were dropped (see
// TraceDropped). All shards emit into the one ring, so a fleet's trace shows
// the interleaving of their cycles. Nil when tracing was not configured.
func (d *deployment) TraceEvents() []TraceEvent { return d.tracer.Events() }

// TraceDropped reports how many trace events were overwritten because the
// ring was full. A long-running deployment with a finite ring will drop —
// point TraceSink at a file to keep everything.
func (d *deployment) TraceDropped() int64 { return d.tracer.Dropped() }

// WireStats returns the cumulative encoded on-wire traffic of a networked
// deployment (zero when backed by the simulator, whose payloads never leave
// the process). Its Conns counter stays flat at n(n-1) across flush cycles
// and shard counts: the one mesh is dialed once at open.
func (d *deployment) WireStats() WireStats {
	if d.cluster == nil {
		return WireStats{}
	}
	return d.cluster.WireStats()
}

// MeshDials reports how many times a transport mesh was dialed: always 1 on
// a networked transport (the persistent-mesh invariant, whatever the number
// of flush cycles or shards), 0 for the simulator backend.
func (d *deployment) MeshDials() int {
	if d.cluster == nil {
		return 0
	}
	return d.cluster.MeshDials()
}

// ChaosLog returns the fired fault events of the chaos schedule in schedule
// order — the replayable fault log: two deployments opened with the same
// (seed, schedule) that fired the same events produce equal logs. Nil when
// no chaos schedule was configured.
func (d *deployment) ChaosLog() []ChaosRecord {
	if d.chaos == nil {
		return nil
	}
	return d.chaos.Log()
}
