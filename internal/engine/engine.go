// Package engine is the streaming consensus engine behind the public Session
// API: it coalesces pending client values into one long L-bit input per
// consensus instance — amortizing the per-generation Broadcast_Single_Bit
// overhead exactly as the paper's O(nL) result intends — and pipelines up to
// Config.Instances concurrent instances over the deployment backend,
// demultiplexing the decided batches back into per-client decisions with
// per-instance and per-batch metrics.
//
// Flushing is driven by a background Policy (a full cycle or a delay bound) so
// callers submit from any number of goroutines and decisions stream back;
// Drain is the manual entry point for callers that want explicit batch
// boundaries. Each flush cycle runs over the configured Runner
// — the in-memory simulator by default, or a networked cluster whose
// transport mesh persists across cycles (internal/node).
//
// The engine models a replicated service: all n processors receive the same
// stream of client values (the validity case), while up to t of them are
// Byzantine and may deviate arbitrarily via the configured adversary. The
// error-free guarantee of Algorithm 1 then makes every per-client decision
// equal at all honest processors, whatever the adversary does.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"byzcons/internal/consensus"
	"byzcons/internal/obs"
	"byzcons/internal/sim"
)

// ErrClosed is the sentinel for work that outlives its engine: Submit after
// Close returns it, and every submission still queued (not yet flushing) when
// Close is called resolves promptly with a Decision carrying it — a Wait
// never blocks on a closed engine.
var ErrClosed = errors.New("engine: closed")

// Runner abstracts the deployment backend that executes one flush cycle of
// batched consensus instances: the in-memory simulator (sim.RunBatch, the
// default) or a networked cluster (internal/node) that runs the same
// instances over encoded messages on a transport mesh dialed once and reused
// across cycles — per-cycle instance demux rides an epoch tag in the frames,
// not fresh connections. Both return the simulator's result types, so
// batching, metrics and decision demux are backend-agnostic. The engine
// serializes RunBatch calls: at most one cycle is in flight at a time.
type Runner interface {
	RunBatch(cfg sim.BatchConfig, body func(inst int, p *sim.Proc) any) *sim.BatchResult
}

// simRunner is the default Runner: the single-host simulator.
type simRunner struct{}

func (simRunner) RunBatch(cfg sim.BatchConfig, body func(inst int, p *sim.Proc) any) *sim.BatchResult {
	return sim.RunBatch(cfg, body)
}

// Policy drives background flushing. A background cycle is due while the
// queue holds at least MaxValues values or a full cycle, or its oldest value
// has waited MaxDelay; the flusher runs cycles while one is due. A
// non-positive field disables its trigger, and the zero Policy disables
// background flushing entirely (Drain and Close only).
type Policy struct {
	// MaxValues makes a cycle due once this many values are queued. A value
	// above one cycle's capacity (BatchValues × Instances) acts as that
	// capacity. While MaxValues is set, a queue head that already fills
	// Instances batches is due too, so a cycle that BatchBytes fills before
	// that many values never waits either. What is left after the full
	// cycles, short of one, waits for the next trigger.
	MaxValues int
	// MaxDelay makes a cycle due once the oldest queued value has waited
	// this long, so a trickle of submissions never waits indefinitely for a
	// full batch.
	MaxDelay time.Duration
}

// Config configures an Engine.
type Config struct {
	// Consensus carries the protocol parameters shared by every processor
	// (n, t, symbol width, lanes, broadcast substrate, default value).
	Consensus consensus.Params
	// Runner executes each cycle's batched instances; nil selects the
	// in-memory simulator.
	Runner Runner
	// Seed drives all randomness deterministically; each flush cycle and
	// instance derives its own sub-seed.
	Seed int64
	// Faulty lists the adversary-controlled processor ids (at most T).
	Faulty []int
	// Adversary injects Byzantine deviations; nil means fail-free execution.
	Adversary sim.Adversary
	// BatchValues caps how many client values are coalesced into one
	// consensus instance (0 = 64).
	BatchValues int
	// BatchBytes caps the packed payload bytes per instance (0 = 1 MiB).
	// A single oversized value still forms its own batch.
	BatchBytes int
	// Instances is the number of consensus instances pipelined concurrently
	// over the deployment per flush cycle (0 = 4).
	Instances int
	// Policy drives background flushing; the zero value keeps the engine
	// fully manual (Drain/Close only).
	Policy Policy
	// OnCycle, if non-nil, is called synchronously after every flush cycle
	// with that cycle's report — the engine's one per-cycle report surface.
	// It runs on the flushing goroutine once the cycle's submissions have
	// resolved, so it must not block on engine progress, and it must treat
	// the report (including its Batches slice) as read-only.
	OnCycle func(Report)
	// Metrics is the registry the engine records runtime metrics into
	// (queue depth and wait, cycle/decision latency histograms, per-phase
	// wall-clock counters). nil creates a private registry; Metrics() on the
	// engine returns it either way.
	Metrics *obs.Registry
	// Tracer, if non-nil and enabled, receives structured protocol trace
	// events (cycle spans, per-generation phase spans, flush triggers). A
	// nil or disabled tracer costs one branch per event site.
	Tracer *obs.Tracer
	// DisableMetrics turns all metric recording off (the tracer too). It
	// exists for the observability overhead guard — an A/B benchmark needs
	// an instrumentation-free twin in the same binary — not for production
	// use: the record paths are a few atomics per event.
	DisableMetrics bool
}

// Decision is the consensus outcome for one submitted value.
type Decision struct {
	// Value is the decided value for this submission — equal to the
	// submitted value whenever the honest processors agree on the batch
	// (always, under the error-free guarantee).
	Value []byte
	// Batch is the global sequence number of the batch the value rode in
	// (-1 when the value never reached a batch, e.g. failed by Close).
	Batch int
	// Defaulted reports that the batch's instance decided the default value
	// (honest inputs provably differed), so Value is nil.
	Defaulted bool
	// Err is set when the batch's instance failed outright, or when the
	// engine was closed before the value flushed (ErrClosed).
	Err error
}

// Pending is a handle on a submitted value's eventual decision. A Pending
// always resolves: with the batch's decision once its flush cycle commits,
// or with ErrClosed when the engine closes first.
type Pending struct {
	once sync.Once
	done chan struct{}
	d    Decision
}

func newPending() *Pending { return &Pending{done: make(chan struct{})} }

// resolve delivers the decision; the first resolution wins.
func (p *Pending) resolve(d Decision) {
	p.once.Do(func() {
		p.d = d
		close(p.done)
	})
}

// Wait blocks until the submission's decision is available or ctx is done.
// On cancellation it returns a Decision carrying ctx.Err(); the submission
// itself stays in flight and a later Wait can still retrieve its decision.
// A decision that is already available wins over a cancelled context.
func (p *Pending) Wait(ctx context.Context) Decision {
	select {
	case <-p.done:
		return p.d
	case <-ctx.Done():
		select {
		case <-p.done:
			return p.d
		default:
			return Decision{Batch: -1, Err: ctx.Err()}
		}
	}
}

// Done returns a channel closed once the decision is available, for callers
// multiplexing pendings in their own select loops.
func (p *Pending) Done() <-chan struct{} { return p.done }

// BatchStats describes one consensus instance (= one batch of values).
type BatchStats struct {
	Batch      int // global batch sequence number
	Cycle      int // flush cycle the batch ran in
	Instance   int // instance slot within its cycle
	Values     int // client values coalesced into the batch
	PackedBits int // L of the packed input
	Bits       int64
	Rounds     int64
	// PipelinedRounds is the instance's sequential round count as its honest
	// processors report it (consensus.Output.Rounds): the sum of its
	// generations' rounds. The name dates from the retired generation
	// pipeline; the benchmark harness reads it.
	PipelinedRounds int64
	// Squashes is always 0: generations are no longer speculated. The
	// benchmark harness still reads the field; it goes with the next
	// benchmark change.
	Squashes      int
	Generations   int
	DiagnosisRuns int
	Defaulted     bool
	// BitsPerValue is the amortized communication cost of the batch: total
	// protocol traffic divided by the number of client values it carried.
	BitsPerValue float64
}

// Report summarises one flush cycle (the OnCycle hook's argument).
type Report struct {
	// Cycle is the cycle's id, counting from 0 in commit order.
	Cycle int
	// Shard is the consensus group that ran the cycle. The engine leaves it
	// 0; a sharded deployment stamps it on each per-cycle report.
	Shard   int
	Batches []BatchStats
	Values  int
	Bits    int64
	// Rounds is the pipelined round count: the maximum per-instance rounds
	// within the cycle.
	Rounds int64
	// PeersDown lists (sorted, deduplicated) the processors charged with the
	// channels observed down during the cycle (see
	// sim.BatchResult.PeersDown). A peer listed for one cycle and absent
	// from the next recovered and rejoined at the epoch boundary; always
	// empty on the simulator backend.
	PeersDown []int
	// DegradedPeers lists (sorted, deduplicated) the peers whose silence the
	// cycle degraded around: some round completed against their
	// synthesized ⊥ contributions, so fewer than n processors decided.
	DegradedPeers []int
	// Timing is the cycle's wall-clock breakdown: total duration, the
	// per-phase partition of the consensus work, and exact decision-latency
	// percentiles for the values the cycle resolved. Zeroed when the
	// engine's metrics are disabled.
	Timing Timing
	// Err is the cycle's first instance failure, if any.
	Err error
}

// Timing is one flush cycle's wall-clock accounting (Report.Timing).
type Timing struct {
	// Cycle is the cycle's wall-clock: input packing through decision
	// demux, consensus included.
	Cycle time.Duration
	// Match, Broadcast, RS and Diagnosis partition the per-generation
	// protocol wall-clock measured at processor 0 (consensus.Phase), summed
	// over the cycle's instances and generations. Instances run
	// concurrently, so the four phases' sum can exceed Cycle — it reads as
	// aggregate protocol work, while Cycle is elapsed wall-clock.
	Match, Broadcast, RS, Diagnosis time.Duration
	// DecisionP50/P90/P99/Max are exact (sorted, not histogram-estimated)
	// percentiles of the enqueue-to-decision latency of the values this
	// cycle resolved successfully.
	DecisionP50, DecisionP90, DecisionP99, DecisionMax time.Duration
	// Decisions is the latency sample count (values resolved this cycle).
	Decisions int
}

// Stats is the engine's cumulative accounting.
type Stats struct {
	Submitted int
	Decided   int
	Defaulted int
	// Failed counts submissions resolved with an error: their batch's
	// instance failed, or the engine closed before they flushed.
	Failed  int
	Batches int
	Cycles  int
	Bits    int64
	Rounds  int64 // pipelined rounds, summed over all cycles
}

type submission struct {
	value   []byte
	pending *Pending
	// enq stamps the submission's arrival: the MaxDelay deadline runs from
	// it, and so do the queue-wait and decision latencies.
	enq time.Time
}

// packedSize is the bytes the submission contributes to a packed batch.
func (s submission) packedSize() int {
	return uvarintLen(uint64(len(s.value))) + len(s.value)
}

// Engine batches submissions and drives pipelined consensus instances.
// All methods are safe for concurrent use. Cycle execution serializes on an
// internal lock, but the submission queue stays open while a cycle runs, so
// Submit never blocks behind consensus progress.
type Engine struct {
	cfg Config

	// mu guards the submission queue, counters and stats. It is never held
	// across a cycle run.
	mu        sync.Mutex
	queue     []submission
	stats     Stats
	nextBatch int
	nextCycle int
	closed    bool

	// full is the queue length that makes a background cycle due: MaxValues
	// capped at one cycle's capacity (0 = no size trigger).
	full int

	// flushMu serializes cycle execution across the background flusher and
	// Drain callers.
	flushMu sync.Mutex

	nudge       chan struct{} // wakes the background flusher to re-check (cap 1)
	stop        chan struct{} // closed by Close to retire the flusher
	flusherDone chan struct{} // closed when the flusher goroutine exits; nil if never started

	reg *obs.Registry
	met engineMetrics
}

// engineMetrics caches the engine's registry entries so the hot path never
// takes the registry lock. All fields are nil when Config.DisableMetrics
// is set — every obs record method is a nil-safe no-op, so call sites need
// no guards.
type engineMetrics struct {
	enabled    bool
	queueDepth *obs.Gauge     // values waiting for a flush cycle
	queueWait  *obs.Histogram // ns from enqueue to cycle pack
	cycleDur   *obs.Histogram // ns per flush cycle
	decision   *obs.Histogram // ns from enqueue to decision resolve
	phases     [consensus.NumPhases]*obs.Counter
}

// registerMetrics wires the engine's metrics and read-through stat gauges
// into reg.
func (e *Engine) registerMetrics() {
	e.met = engineMetrics{
		enabled:    true,
		queueDepth: e.reg.Gauge("engine_queue_depth"),
		queueWait:  e.reg.Histogram("engine_queue_wait_ns"),
		cycleDur:   e.reg.Histogram("engine_cycle_ns"),
		decision:   e.reg.Histogram("engine_decision_ns"),
	}
	for ph := consensus.Phase(0); ph < consensus.NumPhases; ph++ {
		e.met.phases[ph] = e.reg.Counter("consensus_phase_" + ph.String() + "_ns")
	}
	for _, sf := range []struct {
		name string
		read func(Stats) int64
	}{
		{"engine_submitted", func(s Stats) int64 { return int64(s.Submitted) }},
		{"engine_decided", func(s Stats) int64 { return int64(s.Decided) }},
		{"engine_defaulted", func(s Stats) int64 { return int64(s.Defaulted) }},
		{"engine_failed", func(s Stats) int64 { return int64(s.Failed) }},
		{"engine_batches", func(s Stats) int64 { return int64(s.Batches) }},
		{"engine_cycles", func(s Stats) int64 { return int64(s.Cycles) }},
	} {
		read := sf.read
		e.reg.Func(sf.name, func() int64 { return read(e.Stats()) })
	}
}

// New validates cfg, fills defaults, starts the background flusher when the
// policy enables one, and returns an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Consensus.N < 1 {
		return nil, fmt.Errorf("engine: need n >= 1, got %d", cfg.Consensus.N)
	}
	if len(cfg.Faulty) > cfg.Consensus.T {
		return nil, fmt.Errorf("engine: %d faulty processors exceed t=%d", len(cfg.Faulty), cfg.Consensus.T)
	}
	if cfg.BatchValues == 0 {
		cfg.BatchValues = 64
	}
	if cfg.BatchValues < 1 {
		return nil, fmt.Errorf("engine: BatchValues must be >= 1, got %d", cfg.BatchValues)
	}
	if cfg.BatchBytes == 0 {
		cfg.BatchBytes = 1 << 20
	}
	if cfg.BatchBytes < 1 {
		return nil, fmt.Errorf("engine: BatchBytes must be >= 1, got %d", cfg.BatchBytes)
	}
	if cfg.Instances == 0 {
		cfg.Instances = 4
	}
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("engine: Instances must be >= 1, got %d", cfg.Instances)
	}
	if cfg.Runner == nil {
		cfg.Runner = simRunner{}
	}
	e := &Engine{
		cfg:   cfg,
		full:  max(min(cfg.Policy.MaxValues, cfg.BatchValues*cfg.Instances), 0),
		nudge: make(chan struct{}, 1),
		stop:  make(chan struct{}),
		reg:   cfg.Metrics,
	}
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	if !cfg.DisableMetrics {
		e.registerMetrics()
	}
	if e.full > 0 || cfg.Policy.MaxDelay > 0 {
		e.flusherDone = make(chan struct{})
		go e.flusher()
	}
	return e, nil
}

// Submit queues a client value for the next flush cycle and returns a handle
// on its decision. The value is copied; the caller may reuse the slice.
// Submit never blocks on consensus progress: it only appends to the queue
// and, when its value starts a new deadline or fills a cycle, nudges the
// background flusher.
func (e *Engine) Submit(value []byte) (*Pending, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	p := newPending()
	e.queue = append(e.queue, submission{value: append([]byte(nil), value...), pending: p, enq: time.Now()})
	n := len(e.queue)
	nudge := n == 1 || e.fullLocked()
	e.stats.Submitted++
	e.met.queueDepth.Set(int64(n))
	e.mu.Unlock()
	if nudge {
		// A nudge carries no state: a stale one costs the flusher a re-check.
		select {
		case e.nudge <- struct{}{}:
		default:
		}
	}
	return p, nil
}

// dueLocked is the background rule: it names why a cycle is due — "values"
// when fullLocked holds, "delay" when the oldest queued value has waited
// MaxDelay — or returns "" when none is. Caller holds e.mu.
func (e *Engine) dueLocked() string {
	switch n := len(e.queue); {
	case n == 0:
		return ""
	case e.fullLocked():
		return "values"
	case e.cfg.Policy.MaxDelay > 0 && time.Since(e.queue[0].enq) >= e.cfg.Policy.MaxDelay:
		return "delay"
	}
	return ""
}

// flusher is the background goroutine: it runs cycles while one is due, then
// sleeps until the oldest queued value's deadline, a nudge, or Close.
func (e *Engine) flusher() {
	defer close(e.flusherDone)
	// Reset discards a fire nobody read (Go 1.23 timers), so one timer is
	// re-armed for each sleep.
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		e.flush(e.dueLocked) // failures land in the affected decisions and reports
		var deadline <-chan time.Time
		if d := e.cfg.Policy.MaxDelay; d > 0 {
			e.mu.Lock()
			if len(e.queue) > 0 {
				timer.Reset(time.Until(e.queue[0].enq.Add(d)))
				deadline = timer.C
			}
			e.mu.Unlock()
		}
		select {
		case <-e.stop:
			return
		case <-e.nudge:
		case <-deadline:
		}
	}
}

// PendingCount returns the number of values queued for the next flush cycle.
func (e *Engine) PendingCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// Stats returns the engine's cumulative accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close rejects further submissions and promptly fails every submission
// still queued with ErrClosed — a Pending.Wait never hangs on a closed
// engine. A cycle already in flight completes and resolves its own
// submissions with real decisions; Close waits for it, retires the
// background flusher, and waits out a Drain cycle, so no OnCycle call runs
// after Close returns. Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	orphans := e.queue
	e.queue = nil
	e.stats.Failed += len(orphans)
	e.mu.Unlock()

	// Fail the queued-but-never-flushed submissions before waiting on the
	// in-flight cycle: their Wait callers unblock immediately.
	for _, s := range orphans {
		s.pending.resolve(Decision{Batch: -1, Err: ErrClosed})
	}
	close(e.stop)
	if e.flusherDone != nil {
		<-e.flusherDone
	}
	// Wait out a Drain cycle still running: OnCycle only runs under flushMu.
	e.flushMu.Lock()
	e.flushMu.Unlock() //nolint:staticcheck // lock/unlock is the handover barrier
	return nil
}

// Drain flushes everything queued and waits until those cycles committed, or
// until ctx is done: values are coalesced into batches of at most
// BatchValues values / BatchBytes bytes, batches run Instances at a time as
// pipelined consensus instances, and every flushed submission's Pending
// resolves with its per-client decision; each cycle's report goes to
// OnCycle. A nil return means every value submitted before Drain was called
// has resolved its Pending; otherwise the error is ErrClosed (the engine is
// closed), the first failed cycle's error, or ctx.Err(). On cancellation the
// flushing itself keeps running to completion in the background (cycles are
// not abortable); only the wait is abandoned. Drain is the manual override
// next to the background Policy and serializes with its flusher.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	done := make(chan error, 1)
	go func() {
		done <- e.flush(func() string {
			if len(e.queue) > 0 {
				return "manual"
			}
			return ""
		})
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flush is the single cycle-execution path. Before each cycle it asks due,
// under e.mu, why one should run; while due names a trigger, flush traces
// it, runs the cycle and hands the report to OnCycle. It returns the first
// cycle's error. Drain's due names "manual" until the queue is empty, the
// background flusher's is dueLocked; flushMu makes cycles mutually
// exclusive while Submits continue.
func (e *Engine) flush(due func() string) error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()

	var firstErr error
	for {
		e.mu.Lock()
		why := due()
		if why == "" {
			if len(e.queue) == 0 {
				// Release the drained backing array: e.queue is a tail slice
				// of it, and keeping it alive would pin every flushed
				// submission's value bytes.
				e.queue = nil
			}
			e.mu.Unlock()
			return firstErr
		}
		cycle := e.takeCycleLocked()
		cycleID := e.nextCycle
		e.nextCycle++
		e.stats.Cycles++
		batchIDs := make([]int, len(cycle))
		for k := range cycle {
			batchIDs[k] = e.nextBatch
			e.nextBatch++
			e.stats.Batches++
		}
		e.met.queueDepth.Set(int64(len(e.queue)))
		e.mu.Unlock()

		if e.cfg.Tracer.Enabled() {
			e.cfg.Tracer.Emit(obs.Event{Cat: "flush", Name: "trigger", Cycle: cycleID, Detail: why})
		}
		rep := e.runCycle(cycleID, batchIDs, cycle)
		if rep.Err != nil && firstErr == nil {
			firstErr = rep.Err
		}
		if e.cfg.OnCycle != nil {
			e.cfg.OnCycle(rep)
		}
	}
}

// takeCycleLocked carves up to Instances batches off the queue head.
// Caller holds e.mu.
func (e *Engine) takeCycleLocked() [][]submission {
	var cycle [][]submission
	for len(e.queue) > 0 && len(cycle) < e.cfg.Instances {
		k, _ := e.batchLen(e.queue)
		cycle = append(cycle, append([]submission(nil), e.queue[:k]...))
		e.queue = e.queue[k:]
	}
	return cycle
}

// fullLocked is the size trigger: the queue holds full values, or its head
// already fills a cycle because BatchBytes closed its batches early.
// Caller holds e.mu.
func (e *Engine) fullLocked() bool {
	return e.full > 0 && (len(e.queue) >= e.full || e.headFullLocked())
}

// headFullLocked reports whether the queue head already fills a cycle:
// Instances batches, each closed. It is the dry run of takeCycleLocked, so
// it sees a cycle that BatchBytes fills before BatchValues × Instances
// values. Caller holds e.mu.
func (e *Engine) headFullLocked() bool {
	q := e.queue
	for range e.cfg.Instances {
		if len(q) == 0 {
			return false
		}
		k, closed := e.batchLen(q)
		if !closed {
			return false
		}
		q = q[k:]
	}
	return true
}

// batchLen returns how many values at the head of q form one batch — at
// most BatchValues values and BatchBytes packed bytes, the first value
// always — and whether that batch is closed: no further value could join
// it.
func (e *Engine) batchLen(q []submission) (k int, closed bool) {
	size := 0
	for ; k < len(q) && k < e.cfg.BatchValues; k++ {
		need := q[k].packedSize()
		// The packed form also carries the count header; budget it so the
		// blob never exceeds BatchBytes (see packedBits).
		if k > 0 && uvarintLen(uint64(k+1))+size+need > e.cfg.BatchBytes {
			return k, true
		}
		size += need
	}
	// Even an empty value packs to one byte.
	return k, k == e.cfg.BatchValues || uvarintLen(uint64(k+1))+size+1 > e.cfg.BatchBytes
}

// runCycle runs one cycle of batches as pipelined consensus instances and
// resolves every submission of the cycle. It holds no engine lock while the
// instances run.
func (e *Engine) runCycle(cycleID int, batchIDs []int, cycle [][]submission) Report {
	cycleStart := time.Now()
	inputs := make([][]byte, len(cycle))
	for k, batch := range cycle {
		values := make([][]byte, len(batch))
		for i, s := range batch {
			values[i] = s.value
			e.met.queueWait.Record(int64(cycleStart.Sub(s.enq)))
		}
		inputs[k] = packValues(values)
	}

	par := e.cfg.Consensus
	// Phase accumulation: each instance's processor 0 reports its
	// generation phase partition (consensus.Params.PhaseTimer); instances
	// run concurrently, so the cycle totals accumulate atomically.
	var phaseNS [consensus.NumPhases]atomic.Int64
	if e.met.enabled {
		prevTimer, tracer := par.PhaseTimer, e.cfg.Tracer
		met := &e.met
		par.PhaseTimer = func(procID, gen int, ph consensus.Phase, d time.Duration) {
			phaseNS[ph].Add(int64(d))
			met.phases[ph].Add(int64(d))
			if tracer.Enabled() {
				tracer.Emit(obs.Event{
					TS: time.Now().Add(-d).UnixNano(), Dur: int64(d),
					Cat: "phase", Name: ph.String(), Cycle: cycleID, Gen: gen, Node: procID,
				})
			}
			if prevTimer != nil {
				prevTimer(procID, gen, ph, d)
			}
		}
	}
	res := e.cfg.Runner.RunBatch(sim.BatchConfig{
		N:         par.N,
		Faulty:    e.cfg.Faulty,
		Adversary: e.cfg.Adversary,
		Seed:      e.cfg.Seed + int64(cycleID)*0x2545F4914F6CDD1D,
		Instances: len(cycle),
		// One budget: the runner counts Faulty against it too.
		DegradePeers: par.T,
	}, func(inst int, p *sim.Proc) any {
		// L is the packed input's exact length, so a processor that decides
		// its own input returns that input as its value (consensus.Output):
		// every honest output of an instance may share inputs[inst]. That is
		// safe because packValues builds a fresh batch per cycle and nothing
		// writes it after this call; unpackValues copies the values out.
		return consensus.Run(p, par, inputs[inst], len(inputs[inst])*8)
	})

	rep := Report{Cycle: cycleID, Rounds: res.Rounds, Bits: res.Bits, PeersDown: res.PeersDown,
		DegradedPeers: res.DegradedPeers}
	var decisionLats []time.Duration
	if e.met.enabled {
		decisionLats = make([]time.Duration, 0, len(batchIDs)*e.cfg.BatchValues)
	}
	var decided, defaulted, failed int
	for k, batch := range cycle {
		ir := res.Instances[k]
		st := BatchStats{
			Batch:      batchIDs[k],
			Cycle:      cycleID,
			Instance:   k,
			Values:     len(batch),
			PackedBits: len(inputs[k]) * 8,
			Bits:       ir.Meter.TotalBits(),
			Rounds:     ir.Meter.Rounds(),
		}
		err := ir.Err
		var out *consensus.Output
		if err == nil {
			out, err = e.agreedOutput(ir.Values)
		}
		if err != nil {
			err = fmt.Errorf("engine: batch %d: %w", batchIDs[k], err)
			resolveBatch(batch, Decision{Batch: batchIDs[k], Err: err})
			failed += len(batch)
			if rep.Err == nil {
				rep.Err = err
			}
			rep.Batches = append(rep.Batches, st)
			continue
		}
		st.Generations = out.Generations
		st.DiagnosisRuns = out.DiagnosisRuns
		st.PipelinedRounds = out.Rounds
		st.Defaulted = out.Defaulted
		st.BitsPerValue = float64(st.Bits) / float64(len(batch))
		rep.Batches = append(rep.Batches, st)
		rep.Values += len(batch)

		if out.Defaulted {
			defaulted += len(batch)
			for _, s := range batch {
				if e.met.enabled {
					lat := time.Since(s.enq)
					decisionLats = append(decisionLats, lat)
					e.met.decision.Record(int64(lat))
				}
			}
			resolveBatch(batch, Decision{Batch: batchIDs[k], Defaulted: true})
			continue
		}
		values, err := unpackValues(out.Value)
		if err == nil && len(values) != len(batch) {
			err = fmt.Errorf("engine: decided %d values for a %d-value batch", len(values), len(batch))
		}
		if err != nil {
			err = fmt.Errorf("engine: batch %d: %w", batchIDs[k], err)
			resolveBatch(batch, Decision{Batch: batchIDs[k], Err: err})
			failed += len(batch)
			if rep.Err == nil {
				rep.Err = err
			}
			continue
		}
		for i, s := range batch {
			decided++
			if e.met.enabled {
				lat := time.Since(s.enq)
				decisionLats = append(decisionLats, lat)
				e.met.decision.Record(int64(lat))
			}
			s.pending.resolve(Decision{Value: values[i], Batch: batchIDs[k]})
		}
	}

	if e.met.enabled {
		rep.Timing = Timing{
			Cycle:     time.Since(cycleStart),
			Match:     time.Duration(phaseNS[consensus.PhaseMatch].Load()),
			Broadcast: time.Duration(phaseNS[consensus.PhaseBroadcast].Load()),
			RS:        time.Duration(phaseNS[consensus.PhaseRS].Load()),
			Diagnosis: time.Duration(phaseNS[consensus.PhaseDiagnosis].Load()),
		}
		rep.Timing.DecisionP50, rep.Timing.DecisionP90, rep.Timing.DecisionP99, rep.Timing.DecisionMax =
			latencyPercentiles(decisionLats)
		rep.Timing.Decisions = len(decisionLats)
		e.met.cycleDur.Record(int64(rep.Timing.Cycle))
		if e.cfg.Tracer.Enabled() {
			e.cfg.Tracer.Span(cycleStart, obs.Event{Cat: "cycle", Name: "flush", Cycle: cycleID,
				Detail: fmt.Sprintf("values=%d batches=%d", rep.Values, len(rep.Batches))})
		}
	}

	e.mu.Lock()
	e.stats.Rounds += rep.Rounds
	e.stats.Bits += rep.Bits
	e.stats.Decided += decided
	e.stats.Defaulted += defaulted
	e.stats.Failed += failed
	e.mu.Unlock()
	return rep
}

// latencyPercentiles returns exact p50/p90/p99/max over lats (sorted in
// place). Exactness is affordable here: a cycle resolves at most
// BatchValues*Instances values.
func latencyPercentiles(lats []time.Duration) (p50, p90, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q int) time.Duration {
		rank := (len(lats)*q + 99) / 100 // ceil rank, 1-based
		if rank < 1 {
			rank = 1
		}
		return lats[rank-1]
	}
	return at(50), at(90), at(99), lats[len(lats)-1]
}

// Metrics returns the engine's registry (the one passed in Config.Metrics,
// or the private one created at New).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// agreedOutput cross-checks the honest processors' outputs of one instance
// and returns their common output. Any divergence means the error-free
// guarantee was broken and is reported as an error.
//
// Honest outputs may be missing — on a networked runner, nodes whose runs
// ended on broken peer channels — as long as they and the Faulty processors
// together number at most T; the outputs that exist must still agree
// unanimously.
func (e *Engine) agreedOutput(values []any) (*consensus.Output, error) {
	isFaulty := make(map[int]bool, len(e.cfg.Faulty))
	for _, f := range e.cfg.Faulty {
		isFaulty[f] = true
	}
	var ref *consensus.Output
	var missing []int
	for i, v := range values {
		if isFaulty[i] {
			continue
		}
		out, ok := v.(*consensus.Output)
		if !ok {
			missing = append(missing, i)
			continue
		}
		if ref == nil {
			ref = out
			continue
		}
		if !bytes.Equal(out.Value, ref.Value) || out.Defaulted != ref.Defaulted {
			return nil, fmt.Errorf("honest processors %d disagreed (error-free guarantee broken)", i)
		}
	}
	if t := e.cfg.Consensus.T; len(isFaulty)+len(missing) > t {
		return nil, fmt.Errorf("fault budget t=%d exceeded: %d Byzantine processors and honest processors %v without output",
			t, len(isFaulty), missing)
	}
	if ref == nil {
		return nil, fmt.Errorf("no honest processors")
	}
	return ref, nil
}

// resolveBatch delivers one decision to every submission of a batch.
func resolveBatch(batch []submission, d Decision) {
	for _, s := range batch {
		s.pending.resolve(d)
	}
}
