package byzcons

import (
	"context"
	"fmt"
	"io"
	"time"

	"byzcons/internal/chaos"
	"byzcons/internal/engine"
	"byzcons/internal/obs"
)

// ErrClosed is the sentinel failing work that outlives its Session: Propose
// after Close returns it, and every proposal still undecided when Close is
// called resolves with a Decision carrying it, so no Wait ever hangs on a
// closed session.
var ErrClosed = engine.ErrClosed

// FlushPolicy drives a Session's background flushing: instead of callers
// draining by hand, queued proposals are coalesced into consensus batches
// whenever a cycle is due — while at least MaxValues proposals are queued,
// or once the oldest queued proposal has waited MaxDelay. The flusher runs
// cycles while one is due, so proposals that arrive while a cycle runs leave
// when the rule says so, not as a partial cycle just because the flusher is
// already running. Each field stands on its own: 0 selects that trigger's
// default, a negative value disables that trigger. In particular the
// MaxDelay backstop stays armed (at DefaultMaxDelay) even when only
// MaxValues was set explicitly — a trickle of proposals below it must still
// decide. Disabling both triggers makes the session fully manual
// (Drain/Close only).
type FlushPolicy struct {
	// MaxValues makes a cycle due once this many proposals are queued
	// (0 = one full cycle: BatchValues × Instances; negative = disabled). A
	// value above one full cycle acts as one full cycle, and while this
	// trigger is on a queue head that BatchBytes already splits into
	// Instances full batches is due too, so a full cycle never waits. What
	// is left after the full cycles, short of one, waits for the next
	// trigger.
	MaxValues int
	// MaxDelay makes a cycle due once the oldest queued proposal has waited
	// this long, so a trickle of traffic never waits indefinitely for a full
	// batch (0 = DefaultMaxDelay; negative = disabled).
	MaxDelay time.Duration
}

// DefaultMaxDelay is the flush-delay bound a zero FlushPolicy.MaxDelay gets:
// low enough that a lone Propose decides interactively, high enough that a
// busy ingest stream fills whole batches before the timer ever fires.
const DefaultMaxDelay = 5 * time.Millisecond

// normalized resolves the policy against the batch geometry, field by
// field: explicit positives are kept, zeros take that field's default,
// negatives disable.
func (p FlushPolicy) normalized(batchValues, instances int) engine.Policy {
	var out engine.Policy
	switch {
	case p.MaxValues > 0:
		out.MaxValues = p.MaxValues
	case p.MaxValues == 0:
		out.MaxValues = batchValues * instances
	}
	switch {
	case p.MaxDelay > 0:
		out.MaxDelay = p.MaxDelay
	case p.MaxDelay == 0:
		out.MaxDelay = DefaultMaxDelay
	}
	return out
}

// SessionConfig configures a consensus Session.
type SessionConfig struct {
	// Config carries the protocol parameters (N, T, broadcast substrate,
	// seed, ...). Trace is ignored by the Session.
	Config
	// Scenario injects faults into the deployment: the same faulty set and
	// adversary apply to every consensus instance the session runs.
	Scenario Scenario
	// Transport selects the deployment backend the consensus instances run
	// over: TransportSim (default, shared-memory simulator), TransportBus
	// (networked nodes over an in-process bus, full wire encoding) or
	// TransportTCP (networked nodes over a loopback TCP mesh). Networked
	// backends dial the mesh once at Open and reuse it across every flush
	// cycle; successive cycles are demultiplexed by an epoch tag in the
	// frame headers, not by fresh connections. On a networked backend a
	// peer whose channels break or stay silent is one of the T faults: up
	// to T peers, Scenario.Faulty included, degrade to attributed ⊥
	// contributions (FlushReport.DegradedPeers) instead of failing the
	// cycle.
	Transport TransportKind
	// Chaos, when non-empty, runs the session under a deterministic fault
	// schedule: a "seed:events" spec (see internal/chaos.Parse, e.g.
	// "7:cut(1,3)@c1;heal(1,3)@c2" or "7:partition(3)@c1;crash(2)@c2") whose
	// events — cuts, partitions, delay storms, crash-restarts — fire at
	// flush-cycle boundaries or wall-clock offsets against the session's
	// mesh. The seed drives all injected jitter, so one (seed, schedule)
	// replays one fault timeline (Session.ChaosLog returns the fired-event
	// log). Requires a networked transport.
	Chaos string
	// BatchValues caps how many proposals are coalesced into one consensus
	// instance (0 = 64). Bigger batches mean longer inputs and fewer
	// amortized bits per value — the paper's large-L regime.
	BatchValues int
	// BatchBytes caps the packed payload bytes per instance (0 = 1 MiB).
	BatchBytes int
	// Instances is the number of consensus instances pipelined concurrently
	// per flush cycle (0 = 4).
	Instances int
	// Policy drives background flushing (see FlushPolicy; the zero value
	// selects the defaults).
	Policy FlushPolicy
	// OnFlush, if non-nil, is called synchronously after every flush cycle
	// with that cycle's report, in commit order, on the flushing goroutine
	// once the cycle's proposals resolved: treat the report as read-only,
	// return quickly, and do not call Close from it (Close waits for the
	// cycle). For an asynchronous stream, send from the hook in a select
	// with a default case.
	OnFlush func(FlushReport)
	// TraceRing enables protocol event tracing with a bounded in-memory
	// ring of this many events; once full, the oldest event is dropped per
	// new one (TraceEvents reports what survived, the trace_dropped metric
	// what did not). 0 leaves tracing disabled — the hot path then pays a
	// single predictable branch — unless TraceSink is set, in which case
	// the ring takes a default capacity.
	TraceRing int
	// TraceSink, when non-nil, additionally receives every trace event as
	// one JSON line (JSONL) at emit time, so a trace longer than the ring
	// survives to disk. Writes are synchronous on the emitting goroutine;
	// hand a buffered writer for high-volume traces. Setting only TraceSink
	// enables tracing with the default ring size.
	TraceSink io.Writer
}

// withDefaults fills the zero-value fields.
func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.BatchValues == 0 {
		cfg.BatchValues = 64
	}
	if cfg.BatchBytes == 0 {
		cfg.BatchBytes = 1 << 20
	}
	if cfg.Instances == 0 {
		cfg.Instances = 4
	}
	return cfg
}

// Validate reports whether the configuration is runnable, with every
// constraint checked up front — protocol parameters, fault scenario, batch
// geometry and transport — instead of surfacing mid-run. Open calls it; it
// is exported so callers assembling configurations (CLIs, config files) can
// validate without dialing a mesh.
func (cfg SessionConfig) Validate() error {
	cfg = cfg.withDefaults()
	if err := cfg.Config.Validate(); err != nil {
		return err
	}
	if err := cfg.Scenario.validate(cfg.N, cfg.T); err != nil {
		return err
	}
	if _, err := cfg.Transport.factory(); err != nil {
		return err
	}
	if cfg.BatchValues < 1 {
		return fmt.Errorf("byzcons: BatchValues must be >= 1, got %d", cfg.BatchValues)
	}
	if cfg.BatchBytes < 1 {
		return fmt.Errorf("byzcons: BatchBytes must be >= 1, got %d", cfg.BatchBytes)
	}
	if cfg.Instances < 1 {
		return fmt.Errorf("byzcons: Instances must be >= 1, got %d", cfg.Instances)
	}
	if cfg.TraceRing < 0 {
		return fmt.Errorf("byzcons: TraceRing must be >= 0, got %d", cfg.TraceRing)
	}
	if cfg.Chaos != "" {
		if factory, _ := cfg.Transport.factory(); factory == nil {
			return fmt.Errorf("byzcons: Chaos requires a networked transport (the simulator has no channels to fault)")
		}
		sched, err := chaos.Parse(cfg.Chaos)
		if err != nil {
			return fmt.Errorf("byzcons: %w", err)
		}
		if err := sched.Validate(cfg.N); err != nil {
			return fmt.Errorf("byzcons: %w", err)
		}
	}
	return nil
}

// Session is the streaming consensus service: a long-lived handle over a
// persistent deployment. Proposals from any number of goroutines are
// coalesced into long per-instance inputs (amortizing the per-generation
// broadcast overhead, the paper's O(nL) result), flush cycles are driven by
// the background FlushPolicy, decisions stream back per proposal, and on a
// networked transport the whole lifetime runs over one mesh dialed at Open.
//
//	s, err := byzcons.Open(byzcons.SessionConfig{
//		Config: byzcons.Config{N: 7, T: 2},
//	})
//	d, err := s.Propose(ctx, []byte("command")) // d.Value == []byte("command")
//	...
//	s.Drain(ctx) // flush stragglers and wait
//	s.Close()    // fail anything still queued with ErrClosed
//
// A Session is a deployment of one consensus group; Drain, Close and the
// observability surface are the ones a Fleet has.
type Session struct {
	*deployment
}

// Open validates cfg, dials the transport mesh (networked backends dial
// eagerly, so transport failures surface here, not at the first flush) and
// starts the session's background flusher.
func Open(cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := open(cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	return &Session{d}, nil
}

// Propose submits one value and blocks until its consensus decision is
// available or ctx is done. A nil error means the value decided; otherwise
// the error is ctx.Err() (the proposal stays in flight and will still be
// agreed by the deployment), ErrClosed (the session closed before the value
// flushed), or the batch's instance failure.
func (s *Session) Propose(ctx context.Context, value []byte) (Decision, error) {
	p, err := s.ProposeAsync(ctx, value)
	return await(ctx, p, err)
}

// ProposeAsync submits one value and returns a handle on its eventual
// decision without waiting. It never blocks on consensus progress — the
// value only joins the queue (the ctx therefore only gates entry); flushing
// is the background policy's job. The value is copied; the caller may reuse
// the slice.
func (s *Session) ProposeAsync(ctx context.Context, value []byte) (*Pending, error) {
	return s.submit(ctx, 0, value)
}

// Stats returns the session's cumulative accounting.
func (s *Session) Stats() SessionStats { return s.shards[0].eng.Stats() }

// ChaosRecord is one fired event of a chaos schedule (see
// Session.ChaosLog): the event's position in the schedule, its canonical
// spec string, the cycle anchor it fired at (-1 for wall-clock events), and
// the injection error, if any.
type ChaosRecord = chaos.Record

// SessionStats is the session's cumulative accounting.
type SessionStats = engine.Stats

// Decision is the consensus outcome for one proposed value.
type Decision = engine.Decision

// Pending is a handle on a proposed value's eventual Decision.
type Pending = engine.Pending

// BatchStats is the per-batch (= per consensus instance) metric record.
type BatchStats = engine.BatchStats

// FlushReport summarises one flush cycle: the OnFlush hook's argument.
type FlushReport = engine.Report

// MetricsSnapshot is a point-in-time copy of a session's runtime metrics
// (see Session.Snapshot): counter and gauge values plus histogram summaries,
// keyed by metric name.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot summarizes one latency histogram: count, sum and exact
// max, plus p50/p90/p99 estimates from log-scale buckets (quantiles are
// bucket upper bounds clamped to the max, so at most 2x above the true
// value and never above the max).
type HistogramSnapshot = obs.HistSnapshot

// TraceEvent is one structured protocol event (see Session.TraceEvents):
// a timestamped, optionally-spanned record of a flush trigger, cycle, phase
// or peer-lifecycle transition. Events marshal to stable JSON — the
// JSONL lines TraceSink receives.
type TraceEvent = obs.Event

// FlushTiming is the timing breakdown of one flush cycle (see
// FlushReport.Timing): cycle wall clock, the per-phase partition
// (match/broadcast/RS/diagnosis), and exact decision-latency percentiles
// over the proposals the cycle resolved. There is no aggregate across
// cycles: percentiles do not compose, so a caller wanting one keeps the
// per-cycle reports.
type FlushTiming = engine.Timing

// Scenario validation: ids must be in range, distinct, and at most T.
func (sc Scenario) validate(n, t int) error {
	seen := make(map[int]bool, len(sc.Faulty))
	for _, f := range sc.Faulty {
		if f < 0 || f >= n {
			return fmt.Errorf("byzcons: faulty id %d out of range [0,%d)", f, n)
		}
		if seen[f] {
			return fmt.Errorf("byzcons: duplicate faulty id %d", f)
		}
		seen[f] = true
	}
	if len(sc.Faulty) > t {
		return fmt.Errorf("byzcons: %d faulty processors exceed t=%d", len(sc.Faulty), t)
	}
	return nil
}
