// Package node is the networked runtime of the consensus stack: it runs the
// unmodified protocol code (internal/consensus, internal/bsb, internal/mvb)
// over encoded messages on a real transport instead of the single-host
// simulator's shared-memory barrier.
//
// Each processor of a deployment gets a runtime that implements sim.Backend:
// the protocol's Exchange and Sync barriers become wire frames (one per peer
// per step, encoded by internal/wire) pushed through a transport.Endpoint,
// and a round synchronizer that completes a step once the matching frame of
// every peer has arrived. Inbound frames arrive through the transport's
// push delivery (transport.Sink) — decoded and routed in the sender's or
// connection reader's context, with one wakeup per completed round — so the
// lock-step hot path crosses no receive queue and no dispatcher goroutine.
// Each run's frames are demultiplexed into one FIFO per peer: per-peer
// FIFO order — guaranteed by every transport — makes the arrival ordinal the
// round identity; the frame header's step checksum cross-checks it, and a
// mismatch aborts the run exactly like the simulator's step-misalignment
// check.
//
// Byzantine behaviour is injected locally: a faulty node applies the
// configured sim.Adversary to its own outgoing traffic before encoding. The
// adversary therefore sees exactly one processor's outbox per call — the
// node's own — rather than the simulator's global rushing view. Every
// deterministic adversary in the bundled gallery deviates identically under
// both views, which is what makes the cross-backend parity tests exact; an
// adversary that exploits the global view (e.g. one reading honest traffic)
// degrades to its local-knowledge variant here, as it would on a real
// network.
//
// The model realised is the paper's: synchronous rounds over reliable
// authenticated channels, where a Byzantine processor chooses message
// contents but cannot change the round structure. A misaligned step
// checksum fails the run. A broken channel — undecodable headers, dropped
// connections, a peer silent past the stall timeout — makes the peer one of
// the t faulty processors: within the run's fault budget its rounds complete
// with ⊥, beyond it (or with no budget) the run fails. Undecodable payloads
// inside a well-formed frame degrade to ⊥, mirroring the simulator's
// treatment of garbage adversarial payloads.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"byzcons/internal/metrics"
	"byzcons/internal/obs"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
	"byzcons/internal/wire"
)

// DefaultStallTimeout bounds how long a parked round may wait before the
// stall detector marks down every peer whose frame it still lacks. A peer
// missing from the head row has delivered nothing since the park began, so
// the park's length is the peer's silence. The detector attributes that
// silence to the peer and isolates it for the current cycle only — the
// failure lives in the cycle's inboxes, not the persistent router state, so
// the peer participates again from the next epoch. Generous enough that a
// compute-bound honest peer on a loaded host is not convicted.
const DefaultStallTimeout = 20 * time.Second

// options configures one processor runtime of one run.
type options struct {
	id       int
	n        int
	wireInst int // epoch id carried in frames (>= 0)
	faulty   []bool
	adv      sim.Adversary // applied locally when faulty[id]; may be nil
	procRand *rand.Rand    // protocol randomness (matches the simulator's derivation)
	advRand  *rand.Rand    // local adversary randomness
	meter    *metrics.Meter
	// countRounds marks the one runtime per run that tallies rounds into
	// the shared meter (every node executes the same barriers, so
	// counting at each would multiply the round count by n).
	countRounds bool
	// stallTimeout is the stall detector's park bound (0 = default);
	// onStall, when set, is notified once per peer the detector isolates
	// (used for the cycle's membership report).
	stallTimeout time.Duration
	onStall      func(peer int)
	// degrade, when > 0, is the fault budget of graceful degradation: a round
	// missing frames only from peers whose channels are known down completes
	// with synthesized ⊥ frames as long as the degraded peers together with
	// the faulty ones number at most degrade (a faulty peer that is also
	// degraded counts once), and transient send failures are tolerated (the
	// frame dies on the severed wire) instead of aborting the run. 0 keeps
	// the strict fail-fast behaviour.
	degrade int
	send    func(to int, data []byte) error
	// recycleSendBufs enables pooling of encoded frame buffers; set only
	// when the transport does not retain sent slices (Endpoint.Retains).
	recycleSendBufs bool
	// roundWait, if non-nil, records the wall-clock each barrier spends in
	// its round synchronizer (send done, frames awaited) — recorded only at
	// the countRounds runtime, matching the round meter's single-tally
	// convention. Nil-safe (obs no-op receivers).
	roundWait *obs.Histogram
	// inboxDepth, if non-nil, gauges the frames buffered ahead of
	// consumption in the countRounds runtime's inbox (peers running ahead
	// of this node). Approximate across failed cycles: frames a failed run
	// abandoned stay counted until the gauge next moves.
	inboxDepth *obs.Gauge
}

// runtime drives one processor of one run over a transport.
// It implements sim.Backend; the body's goroutine calls Exchange/Sync while
// the transport's delivery context feeds the inbox.
type runtime struct {
	opts  options
	inbox *inbox

	mu     sync.Mutex
	failed error
}

func newRuntime(opts options) *runtime {
	if opts.stallTimeout <= 0 {
		opts.stallTimeout = DefaultStallTimeout
	}
	ib := newInbox(opts.n, opts.id)
	ib.stallTimeout = opts.stallTimeout
	ib.onStall = opts.onStall
	ib.degrade, ib.faulty = opts.degrade, opts.faulty
	if opts.countRounds {
		ib.depth = opts.inboxDepth
	}
	return &runtime{opts: opts, inbox: ib}
}

// run executes the protocol body at this runtime's processor.
func (rt *runtime) run(body func(*sim.Proc) any) (any, error) {
	p := sim.NewProc(rt.opts.id, rt.opts.n, rt.opts.faulty[rt.opts.id], rt.opts.procRand, rt)
	return sim.Invoke(p, body)
}

// errf tags a runtime error with the node.
func (rt *runtime) errf(format string, args ...any) error {
	return fmt.Errorf("node %d: %w", rt.opts.id, fmt.Errorf(format, args...))
}

// abortf fails the run and unwinds the body goroutine.
func (rt *runtime) abortf(format string, args ...any) {
	err := rt.errf(format, args...)
	rt.Fail(err)
	sim.AbortRun(err)
}

// Fail implements sim.Backend: it records the failure and unblocks parked
// round synchronizers (the failure may come from another node of the run,
// via the cluster's failure latch).
func (rt *runtime) Fail(err error) {
	rt.mu.Lock()
	if rt.failed == nil {
		rt.failed = err
	}
	rt.mu.Unlock()
	rt.inbox.fail(err)
}

// FirstHonest implements sim.Backend.
func (rt *runtime) FirstHonest() int {
	for i, f := range rt.opts.faulty {
		if !f {
			return i
		}
	}
	return -1
}

// Exchange implements sim.Backend: one point-to-point synchronous round.
func (rt *runtime) Exchange(p int, step sim.StepID, out []sim.Message, meta any) []sim.Message {
	o := &rt.opts
	// Local Byzantine deviation: a faulty node rewrites its own outbox.
	if o.adv != nil && o.faulty[o.id] {
		outs := make([][]sim.Message, o.n)
		outs[o.id] = out
		o.adv.ReworkExchange(&sim.ExchangeCtx{
			Step: step, N: o.n, Faulty: o.faulty, Out: outs, Meta: meta, Rand: o.advRand,
		})
		out = outs[o.id]
	}
	sum := wire.StepSum(string(step))
	byTop := getByTo(o.n)
	byTo := *byTop
	for i := range out {
		m := &out[i]
		m.From = o.id // senders cannot forge their identity (channel model)
		if m.To < 0 || m.To >= o.n || m.To == o.id {
			rt.abortf("step %q: message with bad To=%d", step, m.To)
		}
		if m.Bits < 0 {
			rt.abortf("step %q: negative Bits", step)
		}
		o.meter.Add(m.Tag, m.Bits, o.faulty[o.id])
		byTo[m.To] = append(byTo[m.To], m.Payload)
	}
	f := wire.Frame{Kind: wire.StepExchange, Instance: o.wireInst, StepSum: sum}
	for j := 0; j < o.n; j++ {
		if j != o.id {
			f.Payloads = byTo[j]
			rt.sendFrame(j, step, &f)
		}
	}
	putByTo(byTop)
	var waitT0 time.Time
	if o.countRounds && o.roundWait != nil {
		waitT0 = time.Now()
	}
	frames := rt.await(step, wire.StepExchange, sum)
	if !waitT0.IsZero() {
		o.roundWait.Record(int64(time.Since(waitT0)))
	}
	total := 0
	for j := 0; j < o.n; j++ {
		if j != o.id {
			total += len(frames[j].Payloads)
		}
	}
	var in []sim.Message
	if total > 0 {
		in = make([]sim.Message, 0, total)
	}
	for j := 0; j < o.n; j++ {
		if j == o.id {
			continue
		}
		for _, pl := range frames[j].Payloads {
			in = append(in, sim.Message{From: j, To: o.id, Payload: pl})
		}
		wire.PutFrame(frames[j])
		frames[j] = nil
	}
	if o.countRounds {
		o.meter.AddRound()
	}
	return in
}

// Sync implements sim.Backend: the ideal all-to-all service becomes an
// all-to-all frame exchange. Note the weaker guarantee on a
// real network: a Byzantine node could deliver different contributions to
// different peers (the simulator's central delivery makes that impossible),
// so substrates whose correctness leans on consistent Sync delivery — the
// oracle broadcasters — keep their contract here only for deviations that
// rewrite the contribution once, like the bundled gallery's. The error-free
// substrates (EIG, PhaseKing) use Sync solely for zero-bit harness
// alignment.
func (rt *runtime) Sync(p int, step sim.StepID, val any, bits int64, tag string, meta any) []any {
	o := &rt.opts
	if bits < 0 {
		rt.abortf("step %q: negative Bits", step)
	}
	if bits > 0 {
		// The simulator meters contributions as submitted by the
		// protocol-conformant code, before adversarial rewriting.
		o.meter.Add(tag, bits, o.faulty[o.id])
	}
	if o.adv != nil && o.faulty[o.id] {
		vals := make([]any, o.n)
		vals[o.id] = val
		o.adv.ReworkSync(&sim.SyncCtx{
			Step: step, N: o.n, Faulty: o.faulty, Vals: vals, Meta: meta, Rand: o.advRand,
		})
		val = vals[o.id]
	}
	sum := wire.StepSum(string(step))
	// Every peer receives the identical frame (same header, same single
	// contribution payload): encode it once and replicate the bytes, instead
	// of walking the payload encoder n-1 times.
	f := wire.Frame{Kind: wire.StepSync, Instance: o.wireInst, StepSum: sum, Payloads: []any{val}}
	tmpl, err := f.Append(transport.GetBuf())
	if err != nil {
		rt.abortf("step %q: %v", step, err)
	}
	for j := 0; j < o.n; j++ {
		if j != o.id {
			rt.sendRaw(j, step, append(transport.GetBuf(), tmpl...))
		}
	}
	transport.PutBuf(tmpl)
	var waitT0 time.Time
	if o.countRounds && o.roundWait != nil {
		waitT0 = time.Now()
	}
	frames := rt.await(step, wire.StepSync, sum)
	if !waitT0.IsZero() {
		o.roundWait.Record(int64(time.Since(waitT0)))
	}
	vals := make([]any, o.n)
	vals[o.id] = val
	for j := 0; j < o.n; j++ {
		if j == o.id {
			continue
		}
		if len(frames[j].Payloads) == 1 {
			// Any other payload count is Byzantine framing; it degrades to a
			// ⊥ contribution rather than killing the run.
			vals[j] = frames[j].Payloads[0]
		}
		wire.PutFrame(frames[j])
		frames[j] = nil
	}
	if o.countRounds {
		o.meter.AddRound()
	}
	return vals
}

// byToPool recycles the per-step outgoing payload grouping of the barrier
// hot path. Payload values escape on their own terms; only the containers
// are reused.
var byToPool = sync.Pool{New: func() any { return new([][]any) }}

func getByTo(n int) *[][]any {
	p := byToPool.Get().(*[][]any)
	for cap(*p) < n {
		*p = append((*p)[:cap(*p)], nil)
	}
	*p = (*p)[:n]
	return p
}

func putByTo(p *[][]any) {
	byTo := *p
	for j := range byTo {
		for i := range byTo[j] {
			byTo[j][i] = nil
		}
		byTo[j] = byTo[j][:0]
	}
	byToPool.Put(p)
}

// sendFrame encodes and transmits one step frame, aborting the run on
// unencodable payloads (a protocol bug) or transport failure. Frame buffers
// come from the transport's shared pool: when the transport copies the bytes
// (TCP, into the peer's batch buffer), the sender recycles its buffer right
// after Send; when it moves the slice by reference (bus), ownership travels
// with the frame and the receiving router recycles it after decoding — in
// both cases the lock-step hot path allocates no frame buffers once the pool
// is warm.
func (rt *runtime) sendFrame(to int, step sim.StepID, f *wire.Frame) {
	data, err := f.Append(transport.GetBuf())
	if err != nil {
		rt.abortf("step %q: %v", step, err)
	}
	rt.sendRaw(to, step, data)
}

// sendRaw transmits pre-encoded frame bytes, recycling the buffer after the
// transport copied it (ownership otherwise travels to the receiving router).
func (rt *runtime) sendRaw(to int, step sim.StepID, data []byte) {
	err := rt.opts.send(to, data)
	if rt.opts.recycleSendBufs {
		transport.PutBuf(data)
	}
	if err != nil && !rt.sendTolerated(err) {
		rt.abortf("step %q: send to node %d: %v", step, to, err)
	}
}

// sendTolerated reports whether a send failure is absorbed under graceful
// degradation: a transient channel loss means the frame died on the severed
// wire — the receiver's round synchronizer attributes the gap to the channel
// — so the sender keeps running instead of aborting its own run.
func (rt *runtime) sendTolerated(err error) bool {
	return rt.opts.degrade > 0 && transport.Transient(err)
}

// await runs the round synchronizer and converts its failures into aborts.
func (rt *runtime) await(step sim.StepID, kind wire.StepKind, sum uint16) []*wire.Frame {
	frames, err := rt.inbox.await(kind, sum)
	if err != nil {
		rt.Fail(rt.errf("step %q: %w", step, err))
		rt.mu.Lock()
		failed := rt.failed
		rt.mu.Unlock()
		sim.AbortRun(failed)
	}
	return frames
}

// peerFault marks a run failure attributable to a broken peer channel rather
// than to this node's own protocol execution — a round that could not
// complete because a peer went down, a degrade bound exceeded, a node killed
// by chaos injection. Under graceful degradation the cluster tolerates
// peer-attributed failures (the node's value goes missing; the run's other
// nodes keep running) instead of latching them run-wide.
type peerFault struct{ err error }

func (e *peerFault) Error() string { return e.err.Error() }
func (e *peerFault) Unwrap() error { return e.err }

// isPeerFault reports whether err carries a peerFault anywhere in its chain.
func isPeerFault(err error) bool {
	var pf *peerFault
	return errors.As(err, &pf)
}

// inbox is the runtime's receive side: one FIFO of decoded frames per peer,
// fed by the transport's delivery context (the sender's goroutine on the bus,
// a connection reader on TCP), consumed by the body's round synchronizer. A
// fast peer's frames for rounds this node has not reached yet simply buffer.
//
// push signals the condition variable only when the appended frame completes
// the head row: one wakeup per completed round.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
	me   int
	fifo [][]*wire.Frame
	// heads is the reusable round buffer: await fills it with the popped head
	// row and the body is done with it before its next await, so it never
	// needs a pool.
	heads []*wire.Frame
	// nonEmpty counts peers whose FIFO currently holds at least one frame;
	// the head row is complete when it reaches n-1 minus the defaulted peers,
	// making push's round-completion check O(1).
	nonEmpty int
	down     []error // per-peer channel failure; frames received first still count
	err      error   // run-level failure (body error latch)
	// One timer guards the parked await instead of one timer per round
	// (arming/stopping a runtime timer per barrier step was a measurable
	// slice of the round hot path). It is armed when the body parks and, once
	// the park has lasted stallTimeout, marks down every peer the head row
	// still lacks (see DefaultStallTimeout). The conviction writes
	// down[peer] — inbox state, hence scoped to this cycle — and notifies
	// onStall for the cycle's membership report.
	parked       bool
	timer        *time.Timer
	timerArmed   time.Time // when the park began (guards stale fires)
	stallTimeout time.Duration
	onStall      func(peer int)
	// depth, if non-nil, gauges the frames currently buffered in the inbox
	// (options.inboxDepth; nil-safe).
	depth *obs.Gauge
	// Graceful degradation (options.degrade): a round missing frames only
	// from down peers synthesizes ⊥ frames for them instead of failing, while
	// the defaulted peers plus the faulty ones stay within the degrade
	// budget. Defaulting starts where a peer's real traffic ended — frames it
	// delivered before breaking still complete their rounds — and is
	// permanent for the run: once a round was synthesized at ordinal r, a
	// late frame would land at the wrong round identity, so push discards
	// the peer's frames from then on.
	degrade    int
	faulty     []bool
	defaulted  []bool
	nDefaulted int
}

func newInbox(n, me int) *inbox {
	ib := &inbox{n: n, me: me, fifo: make([][]*wire.Frame, n), down: make([]error, n)}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// push appends a frame from the given peer to its queue.
func (ib *inbox) push(from int, f *wire.Frame) {
	if from < 0 || from >= ib.n || from == ib.me {
		return
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.defaulted != nil && ib.defaulted[from] {
		return
	}
	ib.fifo[from] = append(ib.fifo[from], f)
	ib.depth.Add(1)
	if len(ib.fifo[from]) == 1 {
		ib.nonEmpty++
		if ib.nonEmpty == ib.n-1-ib.nDefaulted {
			ib.cond.Broadcast()
		}
	}
}

// peerDown marks one peer's channel as broken. It fails only an await that
// actually depends on that peer: a node that finished its run closes its
// endpoint, and peers one step behind must still complete from the frames
// it delivered first — an EOF from a finished peer is benign until a round
// genuinely misses its frame.
func (ib *inbox) peerDown(peer int, err error) {
	if peer < 0 || peer >= ib.n {
		return
	}
	ib.mu.Lock()
	if ib.down[peer] == nil {
		ib.down[peer] = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// fail makes the pending and future awaits return err once frames run short.
func (ib *inbox) fail(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// missing reports whether the head row still lacks peer j's frame.
func (ib *inbox) missing(j int) bool {
	return j != ib.me && len(ib.fifo[j]) == 0 && (ib.defaulted == nil || !ib.defaulted[j])
}

// await blocks until the head of every peer's FIFO is present, then pops and
// validates the heads against the expected (kind, stepsum). Frames already
// delivered win over a recorded failure — a broken peer must not swallow the
// round its final frames completed. Per-peer FIFO order makes the arrival
// ordinal the round identity; a head with a mismatched header is protocol
// divergence and fails the round.
func (ib *inbox) await(kind wire.StepKind, sum uint16) ([]*wire.Frame, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	defer func() {
		if ib.parked {
			ib.parked = false
			ib.timer.Stop()
		}
	}()

	for {
		if ib.nonEmpty == ib.n-1-ib.nDefaulted {
			ib.depth.Add(-int64(ib.nonEmpty))
			if ib.heads == nil {
				ib.heads = make([]*wire.Frame, ib.n)
			}
			heads := ib.heads
			for j := 0; j < ib.n; j++ {
				if j == ib.me {
					continue
				}
				if ib.defaulted != nil && ib.defaulted[j] {
					// A defaulted peer contributes a synthesized payload-free
					// frame: the exact wire image of ⊥ (Sync sees no single
					// payload, Exchange sees no messages), aligned with the
					// round by construction.
					heads[j] = &wire.Frame{Kind: kind, StepSum: sum}
					continue
				}
				f := ib.fifo[j][0]
				ib.fifo[j][0] = nil
				ib.fifo[j] = ib.fifo[j][1:]
				if len(ib.fifo[j]) == 0 {
					ib.nonEmpty--
				}
				if f.Kind != kind || f.StepSum != sum {
					return nil, fmt.Errorf("protocol misalignment with node %d: got (kind %d, sum %#x), want (kind %d, sum %#x)",
						j, f.Kind, f.StepSum, kind, sum)
				}
				heads[j] = f
			}
			return heads, nil
		}
		if ib.err != nil {
			return nil, ib.err
		}
		downMissing, liveMissing := false, false
		var cause error
		for j := 0; j < ib.n; j++ {
			if !ib.missing(j) {
				continue
			}
			if ib.down[j] != nil {
				downMissing = true
				if cause == nil {
					cause = ib.down[j]
				}
			} else {
				liveMissing = true
			}
		}
		if downMissing {
			if ib.degrade <= 0 {
				return nil, &peerFault{fmt.Errorf("round cannot complete: %w", cause)}
			}
			// Graceful degradation: default the down peers — their rounds
			// complete with synthesized ⊥ frames from here on — unless that
			// would overflow the fault budget.
			if err := ib.defaultDownLocked(); err != nil {
				return nil, &peerFault{fmt.Errorf("%w: %w", err, cause)}
			}
			if !liveMissing {
				continue // the head row is complete now; take the pop path
			}
		}
		if !ib.parked {
			ib.parked = true
			ib.armTimerLocked()
		}
		ib.cond.Wait()
	}
}

// defaultDownLocked marks every down peer the head row is missing as
// defaulted, so its rounds complete with synthesized ⊥ frames. The budget is
// |faulty ∪ defaulted| <= degrade: a faulty peer going silent was already
// paid for. On overflow it returns an error naming the budget and marks
// nothing — a failed degrade must leave the attribution set untouched.
// Caller holds ib.mu.
func (ib *inbox) defaultDownLocked() error {
	spent := 0
	for j := 0; j < ib.n; j++ {
		if ib.faulty[j] || (ib.defaulted != nil && ib.defaulted[j]) || (ib.missing(j) && ib.down[j] != nil) {
			spent++
		}
	}
	if spent > ib.degrade {
		return fmt.Errorf("fault budget t=%d exceeded: Byzantine and degraded peers would number %d", ib.degrade, spent)
	}
	if ib.defaulted == nil {
		ib.defaulted = make([]bool, ib.n)
	}
	for j := 0; j < ib.n; j++ {
		if ib.missing(j) && ib.down[j] != nil {
			ib.defaulted[j] = true
			ib.nDefaulted++
		}
	}
	return nil
}

// degradedPeers returns the peers this inbox completed rounds against with
// synthesized ⊥ frames (the cycle's fault-attribution report).
func (ib *inbox) degradedPeers() []int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	var peers []int
	for j, d := range ib.defaulted {
		if d {
			peers = append(peers, j)
		}
	}
	return peers
}

// armTimerLocked (re)arms the stall timer for a fresh park. Caller holds
// ib.mu.
func (ib *inbox) armTimerLocked() {
	ib.timerArmed = time.Now()
	if ib.timer == nil {
		ib.timer = time.AfterFunc(ib.stallTimeout, ib.timerFire)
	} else {
		ib.timer.Reset(ib.stallTimeout)
	}
}

// timerFire is the timer callback: once the park has lasted stallTimeout it
// marks down every peer the head row still lacks — failing the await like
// any other per-peer channel failure, but scoped to this inbox and hence to
// this cycle.
func (ib *inbox) timerFire() {
	ib.mu.Lock()
	if !ib.parked {
		ib.mu.Unlock()
		return
	}
	if remaining := ib.stallTimeout - time.Since(ib.timerArmed); remaining > 0 {
		// A stale fire: the timer was stopped and re-armed while this
		// callback was blocked on the mutex. The current park has not lasted
		// stallTimeout yet — sleep out its remainder instead of judging it
		// early.
		ib.timer.Reset(remaining)
		ib.mu.Unlock()
		return
	}
	var stalled []int
	for j := 0; j < ib.n; j++ {
		if ib.missing(j) && ib.down[j] == nil {
			ib.down[j] = fmt.Errorf("peer %d stalled: no frame for %v while a round waits on it", j, ib.stallTimeout)
			stalled = append(stalled, j)
		}
	}
	ib.cond.Broadcast()
	ib.mu.Unlock()
	if ib.onStall != nil {
		for _, peer := range stalled {
			ib.onStall(peer)
		}
	}
}
