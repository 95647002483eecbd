// Package byzcons is a from-scratch Go implementation of
//
//	Liang & Vaidya, "Error-Free Multi-Valued Consensus with Byzantine
//	Failures" (PODC 2011, arXiv:1101.3520),
//
// the first deterministic, error-free multi-valued Byzantine consensus
// algorithm whose communication complexity is O(nL) bits for sufficiently
// large L-bit values — linear in the number of processors — using no
// cryptography, no secret randomness, and tolerating the optimal t < n/3
// Byzantine faults.
//
// The package simulates the paper's system model (a synchronous, fully
// connected network with authenticated point-to-point channels and a rushing
// adversary with complete knowledge) on a single host, metering exact
// protocol-level bit counts so the paper's complexity formulas (Eq. 1-3) can
// be validated empirically. It bundles:
//
//   - Algorithm 1 (matching / checking / diagnosis stages with the persistent
//     diagnosis graph) via Consensus, its generations run one after another
//     as in the paper;
//   - a streaming consensus service via Session (Open / Propose / Drain /
//     Close): proposals from any number of goroutines are coalesced into one
//     long input per flush cycle (the paper's large-L regime, where the
//     per-generation broadcast overhead amortizes away), each cycle is one
//     consensus run, flush cycles are driven by a background FlushPolicy,
//     and each cycle's FlushReport reaches the OnFlush hook;
//   - a real message-passing runtime via ClusterConsensus and
//     SessionConfig.Transport: one networked node per processor, every
//     protocol payload crossing a self-describing wire codec over a pluggable
//     transport (in-process bus or loopback TCP) whose mesh is dialed once at
//     Open and reused across every flush cycle, with measured on-wire bytes
//     reported next to the protocol-level bit meter;
//   - the Section 4 multi-valued broadcast extension via Broadcast;
//   - the Fitzi-Hirt (PODC 2006) probabilistic baseline via FitziHirt;
//   - the naive L x (1-bit consensus) baseline via NaiveBitwise;
//   - an adversary library (Equivocator, MatchLiar, FalseDetector, TrustLiar,
//     SymbolLiar, EdgeMiser, RandomByz, Silent) for fault-injection;
//   - closed-form predictions (PredictCcon and friends) for paper-vs-measured
//     comparisons.
//
// # Quick start
//
//	cfg := byzcons.Config{N: 7, T: 2}
//	inputs := make([][]byte, 7)
//	for i := range inputs {
//		inputs[i] = []byte("the value everyone agrees on")
//	}
//	res, err := byzcons.Consensus(cfg, inputs, len(inputs[0])*8, byzcons.Scenario{
//		Faulty:   []int{2, 5},
//		Behavior: byzcons.Equivocator{},
//	})
//	// res.Value is the agreed value; res.Bits the exact communication cost.
//
// # Streaming session
//
// For service workloads, open a long-lived Session and propose values from
// as many goroutines as you like. A background FlushPolicy coalesces queued
// proposals into long consensus inputs — amortized bits per value fall
// strictly as batches fill (O(nL) total makes large L cheap per bit) — and
// each flush cycle runs as one consensus run. Every wait takes a
// context and returns promptly on cancellation; Drain flushes and waits;
// Close fails anything still queued with ErrClosed instead of hanging:
//
//	s, err := byzcons.Open(byzcons.SessionConfig{
//		Config:      byzcons.Config{N: 7, T: 2},
//		BatchValues: 32, // values per batch
//		Instances:   4,  // batches per flush cycle, run as one input
//		Policy: byzcons.FlushPolicy{ // zero value = these defaults
//			MaxValues: 128,                  // flush at a full cycle
//			MaxDelay:  byzcons.DefaultMaxDelay, // ... or after 5ms, whichever first
//		},
//		OnFlush: func(rep byzcons.FlushReport) { ... }, // one report per cycle
//	})
//	d, err := s.Propose(ctx, []byte("one client command"))
//	// d.Value is this client's decision; errors are ctx.Err(), ErrClosed
//	// or the batch's failure.
//	s.Drain(ctx) // flush stragglers and wait
//	s.Close()
//
// ProposeAsync returns a *Pending immediately (it never blocks on consensus
// progress); Pending.Wait(ctx) honors cancellation and deadlines, and a
// cancelled wait does not lose the proposal. A cycle is due once MaxValues
// proposals are queued (capped at one full cycle, counting a cycle the
// byte cap fills early, so a full cycle never waits) or once the oldest
// has waited MaxDelay; the flusher runs cycles while one is due. With both FlushPolicy triggers disabled (negative
// values) nothing runs until Drain — the manual batch pump, whose cycles
// report through OnFlush like background ones.
//
// # Observability
//
// Every session carries a runtime metrics registry and, when configured, a
// protocol event tracer — both lock-free on the hot path, so they stay on in
// production. FlushReport.Timing breaks each cycle down into wall-clock,
// the match/broadcast/RS/diagnosis phase partition of the consensus work,
// and exact enqueue-to-decision latency percentiles; Session.Snapshot
// returns the cumulative view (MetricsSnapshot): counters, gauges and
// log-bucket latency histograms for queue wait, cycle duration, decision
// latency, round-sync wait and sampled socket writes. WriteMetrics renders
// the same registry as sorted "name value" text. Setting
// SessionConfig.TraceRing (or TraceSink, for a JSONL stream) enables the
// tracer: TraceEvents returns the buffered TraceEvent ring — flush
// triggers, cycle and phase spans, peer up/down/stall — oldest first. The
// serve mode of cmd/byzcons exposes all of it live via -debugaddr (/metrics,
// /events, expvar, pprof) and pretty-prints captured traces with -mode
// tracefmt.
//
// # Networked cluster
//
// Set SessionConfig.Transport (or call ClusterConsensus directly) to run
// the same protocols over real encoded messages instead of the simulator's
// shared memory — TransportBus for an in-process channel mesh, TransportTCP
// for loopback TCP. A session's mesh is dialed once at Open and reused by
// every flush cycle (Session.MeshDials and WireStats().Conns expose the
// invariant); successive cycles are demultiplexed by an epoch tag in the
// frame headers rather than fresh connections:
//
//	res, err := byzcons.ClusterConsensus(cfg, inputs, L, scenario,
//		byzcons.TransportTCP)
//	// res.Wire.BytesSent is the measured on-wire cost; res.Bits the
//	// protocol-level meter the paper's formulas predict.
//
// The mesh is self-healing: a dropped TCP connection is re-dialed with
// capped exponential backoff and re-handshaked, the rejoining peer
// participates again from the next flush cycle (failures are scoped to the
// cycles that observe them, never latched across the session), and a peer
// that stays silent for 20 s while a round waits on it is isolated for that
// cycle with an attributed error. FlushReport.PeersDown names the
// processors charged with each cycle's down channels: a down channel is
// explained by either end, so a partitioned node is named alone and a cut
// link names both ends (WireStats().Reconnects and PeerFlaps count the
// churn).
//
// # Robustness under sustained faults
//
// The paper's model has at most T faulty processors, and a processor whose
// channels went quiet is one of them. A networked session degrades
// accordingly: a cycle whose rounds miss frames only from peers with broken
// channels keeps completing — those peers contribute ⊥ (a legal Byzantine
// behavior, so agreement among the live processors is untouched) instead
// of failing the cycle. FlushReport.DegradedPeers carries the
// attribution, and the decision cross-check tolerates missing honest
// outputs while still requiring unanimity of the outputs that exist. The
// budget is one budget: the Byzantine processors and every processor a
// degraded channel must be blamed on number at most T, checked across all
// nodes — a cut link costs one fault, two cut links between disjoint pairs
// cost two — and a cycle over budget fails with an error naming it.
//
// SessionConfig.Chaos runs the session under a deterministic fault
// schedule: a "seed:events" spec such as
//
//	"7:cut(1,3)@c1;heal(1,3)@c2;partition(3)@c3;healall@c4;crash(2)@c5;restart(2)@c7"
//
// fires cuts, partitions, delay storms (delay/delayall with seeded jitter,
// which postpones but never reorders a channel against itself) and
// crash-restarts against the live mesh, at flush-cycle boundaries (@cN) or
// wall-clock offsets (@150ms). Cycle-anchored schedules are replayable:
// one (seed, schedule) pair yields one fault timeline — Session.ChaosLog
// returns the fired-event log — and bit-identical decisions across runs.
// A crashed node stops participating (its channels fall silent, exactly the
// paper's view of a faulty processor) and rejoins at the epoch boundary
// after its restart event. The serve mode of cmd/byzcons drives all of it
// against a live ingest workload via -chaos.
//
// # Sharded fleet
//
// One Session is one consensus group. A Fleet scales past that: OpenFleet
// runs S independent groups — each with its own engine, flush policy and
// decision stream — over ONE shared transport mesh (n(n-1) connections
// total, not S times that; Fleet.MeshDials stays 1). Proposals carry a key
// and hash-partition across the shards via ShardOf, a pure function of
// (key bytes, S) that is stable across runs and processes, so the same key
// always lands on the same shard. Shards flush concurrently: frames from
// different shards' cycles interleave on the mesh and are demultiplexed by
// a (shard, epoch) tag composed into the existing frame headers — at
// Shards=1 the encoding is byte-identical to a Session's, and a one-shard
// Fleet decides bit-identically to a Session with the same config:
//
//	f, err := byzcons.OpenFleet(byzcons.FleetConfig{
//		SessionConfig: byzcons.SessionConfig{
//			Config:      byzcons.Config{N: 7, T: 2},
//			Transport:   byzcons.TransportTCP,
//			BatchValues: 32,
//			Instances:   4,
//			OnFlush:     func(rep byzcons.FlushReport) { ... }, // rep.Shard names the shard
//		},
//		Shards: 8,
//	})
//	d, err := f.Propose(ctx, []byte("user:17"), []byte("one command"))
//	// d is the decision of shard ShardOf([]byte("user:17"), 8).
//	st := f.Stats() // per-shard rows + aggregate
//	f.Drain(ctx)
//	f.Close()
//
// A Session is a one-shard Fleet: both handles embed the same deployment,
// so Drain, Close and the observability surface are one
// implementation. Observability aggregates across the fleet: Snapshot
// merges every shard's registry (counters and gauges sum; histograms add
// their buckets, so merged quantiles are those of all shards' samples) over
// the shared transport metrics, ShardSnapshot(s) returns
// one shard's view, and FleetStats carries both the per-shard and summed
// engine stats. Peer failures are physical and shared — a dead channel is
// dead for every shard — but attribution is per shard: each shard's
// FlushReports name only the failures its own cycles observed, so a fault
// injected while one shard flushes degrades that shard's cycle alone.
// Degradation works per shard in a fleet; a Chaos schedule anchors on
// shard 0's cycle clock and is accepted only with one shard (the anchor is
// ambiguous across S independent cycle clocks). The serve mode of
// cmd/byzcons drives a keyed ingest workload across a fleet via -shards;
// the benchmark in bench/ reports fleet.s2_over_s1.
//
// # Generation size
//
// Algorithm 1 splits an L-bit value into generations of D bits and runs them
// one after another, so a run's latency is generations x
// rounds-per-generation. Config.Lanes sets D; 0 picks the D that minimises
// the worst-case bits of Eq. 1. A larger D means fewer generations and
// fewer rounds for the same value, and fewer bits when no fault occurs; what
// it costs is a more expensive diagnosis stage (there are at most t(t+1) in
// a whole execution, Theorem 1). An earlier speculative generation pipeline
// (Config.Window > 1) bought the same round overlap with far more machinery
// and lost to a 4x larger D on every measured workload; it is gone, and
// Validate refuses Window > 1 (DESIGN.md §10):
//
//	res, err := byzcons.Consensus(byzcons.Config{N: 7, T: 2, Lanes: 64},
//		inputs, L, scenario)
//	// fewer res.Generations and res.Rounds; res.Value unchanged.
//
// # Performance
//
// The coding hot path is one word-sliced tier: GF(2^c) kernels that pack 8
// (c <= 8) or 4 (c <= 16) symbols per uint64 and sweep whole words per
// table lookup (internal/gf), driving matrix-form Reed-Solomon with cached
// encode and per-position-subset interpolation matrices over contiguous
// lane stripes at every lane count (internal/rs) — roughly 5x (encode) to
// 35x (consistency check) over the scalar log/exp reference at generation
// widths, with zero steady-state allocations. The networked runtime
// delivers frames synchronously in the transport's context with one wakeup
// per completed round. On TCP the send path is asynchronous and batched:
// Send copies the frame into the destination peer's buffer and returns, and
// a writer puts everything the node's shards queued for that peer on the
// socket in one write (WireStats.FramesSent / Writes is the
// measured coalescing factor). A Session's transport mesh persists across
// flush cycles, so the per-flush TCP connection setup cost is gone
// (BenchmarkTransportThroughput compares fresh-mesh and reused-mesh
// modes). The benchmark in bench/ (go run -C bench .; BENCHMARK.json names
// its workloads and metrics) is the measured record — end-to-end numbers
// plus a per-layer breakdown per workload; profile any workload with
// cmd/byzcons -cpuprofile/-memprofile/-exectrace.
//
// See DESIGN.md for the system inventory and layering (§11 for the coding
// core, §15 for the multi-core execution model); the reproduction of the
// paper's quantitative claims is produced by cmd/experiments (index in
// DESIGN.md §8).
package byzcons
