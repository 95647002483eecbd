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
// lock-step hot path crosses no receive queue and no dispatcher goroutine. Frames are demultiplexed into one FIFO per
// (peer, stream): per-peer FIFO order — guaranteed by every transport —
// makes the arrival ordinal within a stream the round identity; the frame
// header's step checksum cross-checks it, and a mismatch aborts the run
// exactly like the simulator's step-misalignment check. Stream 0 carries
// sequential protocol traffic; the speculative generation pipeline runs one
// stream per in-flight generation, and a squashed stream's queue is dropped
// and tombstoned so a peer's stale speculative frames are discarded by tag
// instead of corrupting live rounds.
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
// contents but cannot change the round structure. Breaking the framing
// itself — undecodable headers, misaligned step checksums, dropped
// connections — is modelled as a crashed channel and fails the run;
// undecodable payloads inside a well-formed frame degrade to ⊥, mirroring
// the simulator's treatment of garbage adversarial payloads.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"byzcons/internal/metrics"
	"byzcons/internal/obs"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
	"byzcons/internal/wire"
)

// DefaultStepTimeout bounds how long a parked barrier step may go without
// any round completing on the node. In a lock-step protocol a missing peer
// frame means the round can never complete, so once progress stops entirely,
// waiting longer only delays the failure report; while other streams keep
// completing rounds (a speculative fiber waiting out its own squash), the
// timer re-arms instead of failing a live deployment.
const DefaultStepTimeout = 30 * time.Second

// DefaultStallTimeout bounds how long one peer may stay silent — no frame on
// any stream — while a parked round waits on its frame, before the stall
// detector marks the peer down for the cycle. It rides behind the node-wide
// progress timer: the step timeout fires only when the whole node stops
// completing rounds, which a single unresponsive peer can postpone
// indefinitely on a pipelined node (other streams keep re-arming the timer).
// The stall detector attributes the silence to the peer and isolates it for
// the current cycle only — the failure lives in the cycle's inboxes, not the
// persistent router state, so the peer participates again from the next
// epoch. Deliberately below DefaultStepTimeout, and generous enough that a
// compute-bound honest peer on a loaded host is not convicted.
const DefaultStallTimeout = 20 * time.Second

// options configures one processor runtime of one protocol instance.
type options struct {
	id       int
	n        int
	instTag  int // instance for error tagging; -1 = untagged single run
	wireInst int // instance id carried in frames (>= 0)
	faulty   []bool
	adv      sim.Adversary // applied locally when faulty[id]; may be nil
	procSeed int64         // deterministic per-processor seed (simulator derivation)
	procRand *rand.Rand    // protocol randomness (matches the simulator's derivation)
	advRand  *rand.Rand    // local adversary randomness
	meter    *metrics.Meter
	// countRounds marks the one runtime per instance that tallies rounds
	// into the shared meter (every node executes the same barriers, so
	// counting at each would multiply the round count by n).
	countRounds bool
	stepTimeout time.Duration
	// stallTimeout enables the per-peer stall detector (0 = default,
	// negative = disabled); onStall, when set, is notified once per peer the
	// detector isolates (used for the cycle's membership report).
	stallTimeout time.Duration
	onStall      func(peer int)
	// degrade, when > 0, is the graceful-degradation bound: a round missing
	// frames only from peers whose channels are known down completes with
	// synthesized ⊥ frames for up to degrade distinct peers, and transient
	// send failures are tolerated (the frame dies on the severed wire) instead
	// of aborting the run. 0 keeps the strict fail-fast behaviour.
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

// runtime drives one processor of one protocol instance over a transport.
// It implements sim.Backend; the body's fiber goroutines call Exchange/Sync
// concurrently (one fiber per stream), while the transport's delivery
// context feeds the inbox.
type runtime struct {
	opts  options
	inbox *inbox

	mu     sync.Mutex
	failed error
}

func newRuntime(opts options) *runtime {
	if opts.stepTimeout <= 0 {
		opts.stepTimeout = DefaultStepTimeout
	}
	switch {
	case opts.stallTimeout == 0:
		opts.stallTimeout = DefaultStallTimeout
	case opts.stallTimeout < 0:
		opts.stallTimeout = 0 // disabled
	}
	ib := newInbox(opts.n, opts.id)
	ib.stallTimeout = opts.stallTimeout
	ib.onStall = opts.onStall
	ib.degrade = opts.degrade
	if opts.countRounds {
		ib.depth = opts.inboxDepth
	}
	return &runtime{opts: opts, inbox: ib}
}

// run executes the protocol body at this runtime's processor.
func (rt *runtime) run(body func(*sim.Proc) any) (any, error) {
	p := sim.NewProc(rt.opts.id, rt.opts.n, max(rt.opts.instTag, 0), rt.opts.faulty[rt.opts.id], rt.opts.procSeed, rt.opts.procRand, rt)
	return sim.Invoke(p, body)
}

// errf tags a runtime error with the node; instance attribution is added
// once, by the cluster, when it collects the per-instance errors.
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
// round synchronizers (the failure may come from another node of the
// instance, via the cluster's failure latch).
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

// Squash implements sim.Backend: the stream's queues are dropped, future
// frames for it are discarded by tag, and the fiber's pending or next await
// on it unwinds with a Squashed panic. Squash is local — peers drop the
// stream on their own (identical, deterministic) schedule.
func (rt *runtime) Squash(p, stream int) {
	rt.inbox.squash(stream)
}

// Release implements sim.Backend: a committed stream's (fully drained)
// queues are freed. Unlike Squash it leaves no tombstone — honest peers send
// exactly one frame per step, and a committed stream's steps have all been
// consumed, so nothing more can arrive on it.
func (rt *runtime) Release(p, stream int) {
	rt.inbox.release(stream)
}

// Exchange implements sim.Backend: one point-to-point synchronous round on
// one stream.
func (rt *runtime) Exchange(p, stream int, step sim.StepID, out []sim.Message, meta any) []sim.Message {
	o := &rt.opts
	rt.checkSquashed(stream)
	// Local Byzantine deviation: a faulty node rewrites its own outbox.
	if o.adv != nil && o.faulty[o.id] {
		outs := make([][]sim.Message, o.n)
		outs[o.id] = out
		o.adv.ReworkExchange(&sim.ExchangeCtx{
			Step: step, Instance: max(o.instTag, 0), Stream: stream, N: o.n, Faulty: o.faulty,
			Out: outs, Meta: meta, Rand: o.advRand,
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
	f := wire.Frame{Kind: wire.StepExchange, Instance: o.wireInst, Stream: stream, StepSum: sum}
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
	frames := rt.await(stream, step, wire.StepExchange, sum)
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
// all-to-all frame exchange on one stream. Note the weaker guarantee on a
// real network: a Byzantine node could deliver different contributions to
// different peers (the simulator's central delivery makes that impossible),
// so substrates whose correctness leans on consistent Sync delivery — the
// oracle broadcasters — keep their contract here only for deviations that
// rewrite the contribution once, like the bundled gallery's. The error-free
// substrates (EIG, PhaseKing) use Sync solely for zero-bit harness
// alignment.
func (rt *runtime) Sync(p, stream int, step sim.StepID, val any, bits int64, tag string, meta any) []any {
	o := &rt.opts
	rt.checkSquashed(stream)
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
			Step: step, Instance: max(o.instTag, 0), Stream: stream, N: o.n, Faulty: o.faulty,
			Vals: vals, Meta: meta, Rand: o.advRand,
		})
		val = vals[o.id]
	}
	sum := wire.StepSum(string(step))
	// Every peer receives the identical frame (same header, same single
	// contribution payload): encode it once and replicate the bytes, instead
	// of walking the payload encoder n-1 times.
	f := wire.Frame{Kind: wire.StepSync, Instance: o.wireInst, Stream: stream, StepSum: sum, Payloads: []any{val}}
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
	frames := rt.await(stream, step, wire.StepSync, sum)
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

// checkSquashed unwinds the calling fiber before it spends wire bytes on a
// stream its driver has already abandoned. The check is advisory — the
// authoritative unwind happens at await — so the fault-free fast path is a
// single atomic load: a run that never squashed takes no lock here, and a
// barely-raced squash at worst costs one more step of discarded traffic.
func (rt *runtime) checkSquashed(stream int) {
	if !rt.inbox.everSquashed.Load() {
		return
	}
	if rt.inbox.isDead(stream) {
		panic(sim.Squashed{Stream: stream})
	}
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

// await runs the round synchronizer and converts its failures into aborts —
// or, for a squashed stream, into the squash unwind the consensus pipeline
// recovers at the fiber boundary.
func (rt *runtime) await(stream int, step sim.StepID, kind wire.StepKind, sum uint16) []*wire.Frame {
	frames, err := rt.inbox.await(stream, kind, sum, rt.opts.stepTimeout)
	if err == errSquashed {
		panic(sim.Squashed{Stream: stream})
	}
	if err != nil {
		rt.Fail(rt.errf("step %q: %w", step, err))
		rt.mu.Lock()
		failed := rt.failed
		rt.mu.Unlock()
		sim.AbortRun(failed)
	}
	return frames
}

// errSquashed is the inbox's internal signal that an await lost its stream
// to a local squash; the runtime converts it into a sim.Squashed panic.
var errSquashed = errors.New("node: stream squashed")

// peerFault marks a run failure attributable to a broken peer channel rather
// than to this node's own protocol execution — a round that could not
// complete because a peer went down, a degrade bound exceeded, a node killed
// by chaos injection. Under graceful degradation the cluster tolerates
// peer-attributed failures (the node's value goes missing; the instance's
// other nodes keep running) instead of latching them instance-wide.
type peerFault struct{ err error }

func (e *peerFault) Error() string { return e.err.Error() }
func (e *peerFault) Unwrap() error { return e.err }

// isPeerFault reports whether err carries a peerFault anywhere in its chain.
func isPeerFault(err error) bool {
	var pf *peerFault
	return errors.As(err, &pf)
}

// inbox is the runtime's receive side: one FIFO of decoded frames per
// (peer, stream), fed by the transport's delivery context (the sender's
// goroutine on the bus, a connection reader on TCP), consumed by the fibers'
// round synchronizers. Streams are created on demand by either side — a
// fast peer's frames for a stream this node has not opened yet simply
// buffer — and are freed on release (committed streams, fully drained) or
// squash (speculative streams; a tombstone then discards stale frames).
//
// Wakeups are per stream and per completed round: each stream has its own
// condition variable, and push signals it only when the appended frame
// completes the stream's head row. A window of speculative fibers therefore
// costs no thundering herd — a frame arrival wakes at most the one fiber
// whose round it completed.
type inbox struct {
	mu      sync.Mutex
	n       int
	me      int
	streams map[int]*streamQueues
	dead    map[int]bool
	down    []error // per-peer channel failure; frames received first still count
	err     error   // run-level failure (body error latch)
	// delivered counts completed awaits (rounds popped). The step timeout
	// re-arms while it advances: a speculative fiber parked on a stream its
	// peers already abandoned must not fail the run while the node as a
	// whole keeps completing rounds — its driver will squash it as soon as
	// the diagnosing generation commits. A genuine wedge stops all
	// completions, so the timeout still fires within one period of the last
	// progress anywhere on the node.
	delivered uint64
	// pending counts streams created by push that no fiber has awaited yet
	// (see maxPendingStreams).
	pending int
	// everSquashed gates the advisory pre-send squash check: a fault-free
	// run never pays a lock for it.
	everSquashed atomic.Bool
	// Node-wide progress timer: one timer guards every parked await instead
	// of one timer per round (arming/stopping a runtime timer per barrier
	// step was a measurable slice of the round hot path). It is armed while
	// waiters > 0, tracks the last observed progress whenever delivered
	// advanced since the previous check, and marks timedOut — failing every
	// parked await — only when a full step-timeout passes with no round
	// completing anywhere on the node.
	waiters      int
	timer        *time.Timer
	timerSnap    uint64
	timerDur     time.Duration // the step timeout (wedge bound)
	timerPeriod  time.Duration // firing granularity: min(stall, step timeout)
	timerArmed   time.Time     // when the period began (guards stale fires)
	lastProgress time.Time     // when delivered last advanced (at fire granularity)
	timedOut     bool
	// Stall detector (see DefaultStallTimeout): lastSeen stamps each peer's
	// most recent frame on any stream; timer fires at stall granularity and
	// convicts a peer that stayed silent for a full stallTimeout while a
	// parked await was missing exactly its frame. The conviction writes
	// down[peer] — inbox state, hence scoped to this cycle — and notifies
	// onStall for the cycle's membership report.
	stallTimeout time.Duration // 0 = disabled
	onStall      func(peer int)
	lastSeen     []time.Time
	// depth, if non-nil, gauges the frames currently buffered across the
	// inbox's streams (options.inboxDepth; nil-safe).
	depth *obs.Gauge
	// Graceful degradation (options.degrade): a round missing frames only
	// from down peers synthesizes ⊥ frames for them instead of failing, for
	// up to degrade distinct peers. degradedSet/nDegraded track the distinct
	// peers defaulted anywhere in this inbox (the bound and the cycle's
	// attribution report); per-(stream, peer) defaulting lives in
	// streamQueues so frames a peer delivered before breaking still complete
	// their rounds.
	degrade     int
	degradedSet []bool
	nDegraded   int
}

// streamQueues holds one stream's per-peer FIFO queues and the stream's
// round-completion condition variable (sharing the inbox mutex). awaited
// records that a local fiber has attached to the stream; queues created by
// push alone are "pending" and counted against maxPendingStreams.
type streamQueues struct {
	cond *sync.Cond
	fifo [][]*wire.Frame
	// heads is the stream's reusable round buffer: await fills it with the
	// popped head row and the (single) consuming fiber is done with it
	// before its next await on this stream, so it never needs a pool.
	heads []*wire.Frame
	// nonEmpty counts peers whose FIFO currently holds at least one frame;
	// the head row is complete when it reaches n-1, making push's
	// round-completion check O(1).
	nonEmpty int
	// waiting counts fibers currently parked on this stream; the stall
	// detector only examines streams a round is actually blocked on.
	waiting int
	awaited bool
	// pendingCounted marks entries counted in inbox.pending (created by
	// push before any await attached).
	pendingCounted bool
	// defaulted marks peers this stream completes rounds against with
	// synthesized ⊥ frames (graceful degradation). Defaulting is per stream —
	// a down peer's frames buffered on another stream are real traffic and
	// still win — and permanent for the stream: once a round was synthesized
	// at ordinal r, a late frame from the peer would land at the wrong round
	// identity, so push discards the peer's frames for this stream.
	defaulted  []bool
	nDefaulted int
}

// maxPendingStreams bounds how many distinct streams may hold buffered
// frames before any local fiber awaits them. Honest peers run the same
// deterministic pipeline schedule, so they can be ahead of this node by at
// most a couple of windows of stream launches; a peer whose frames span more
// never-awaited streams than that is flooding attacker-chosen tags, which is
// a channel violation and fails loudly (the pre-stream runtime's behaviour
// for out-of-protocol frames) instead of buffering without bound.
const maxPendingStreams = 1024

func newInbox(n, me int) *inbox {
	return &inbox{
		n: n, me: me,
		streams: make(map[int]*streamQueues),
		dead:    make(map[int]bool),
		down:    make([]error, n),
	}
}

// get returns the stream's queues, creating them on demand. Caller holds
// ib.mu and has checked ib.dead.
func (ib *inbox) get(stream int) *streamQueues {
	sq := ib.streams[stream]
	if sq == nil {
		sq = &streamQueues{fifo: make([][]*wire.Frame, ib.n)}
		sq.cond = sync.NewCond(&ib.mu)
		ib.streams[stream] = sq
	}
	return sq
}

// wakeAllLocked wakes every stream's waiter for inbox-wide events (run
// failure, a peer going down). Caller holds ib.mu.
func (ib *inbox) wakeAllLocked() {
	for _, sq := range ib.streams {
		sq.cond.Broadcast()
	}
}

// push appends a frame from the given peer to the stream's queue; frames for
// squashed streams are discarded by tag. It reports false — a channel
// violation attributable to the peer — when the frame would open a stream
// beyond the never-awaited buffering bound.
func (ib *inbox) push(from, stream int, f *wire.Frame) bool {
	if from < 0 || from >= ib.n || from == ib.me {
		return true
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.stallTimeout > 0 && ib.lastSeen != nil {
		// Any frame on any stream is liveness, squashed or not.
		ib.lastSeen[from] = time.Now()
	}
	if ib.dead[stream] {
		return true
	}
	sq := ib.streams[stream]
	if sq == nil {
		if ib.pending >= maxPendingStreams {
			return false
		}
		ib.pending++
		sq = ib.get(stream)
		sq.pendingCounted = true
	}
	if sq.defaulted != nil && sq.defaulted[from] {
		// The stream already synthesized rounds for this peer; a late frame
		// would land at the wrong round ordinal, so it is discarded like a
		// squashed stream's.
		return true
	}
	sq.fifo[from] = append(sq.fifo[from], f)
	ib.depth.Add(1)
	if len(sq.fifo[from]) == 1 {
		sq.nonEmpty++
		if sq.nonEmpty == ib.n-1-sq.nDefaulted {
			// The head row is complete: wake the stream's fiber — one
			// wakeup per completed round.
			sq.cond.Broadcast()
		}
	}
	return true
}

// peerDown marks one peer's channel as broken. It fails only awaits that
// actually depend on that peer: a node that finished its run closes its
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
	ib.wakeAllLocked()
	ib.mu.Unlock()
}

// fail makes pending and future awaits return err once frames run short.
func (ib *inbox) fail(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.wakeAllLocked()
	ib.mu.Unlock()
}

// squash drops a stream's queues, tombstones it against stale frames, and
// wakes a pending await so it can unwind.
func (ib *inbox) squash(stream int) {
	ib.everSquashed.Store(true)
	ib.mu.Lock()
	if !ib.dead[stream] {
		ib.dead[stream] = true
		sq := ib.streams[stream]
		ib.drop(stream)
		if sq != nil {
			sq.cond.Broadcast()
		}
	}
	ib.mu.Unlock()
}

// release retires a committed stream. Its queues are fully drained (every
// round was consumed, and honest peers send exactly one frame per step), so
// the empty entry is simply left in place: the map stays insert-only on the
// commit path — no delete/re-create churn per generation — and the whole
// inbox is dropped when its instance finishes. Only squash (which must
// tombstone against stale speculative frames) removes entries.
func (ib *inbox) release(stream int) {}

// drop removes a squashed stream's queues. They are deliberately NOT
// recycled: the squashed fiber may still be reading the heads row of its
// last completed round (it learns of the squash only at its next barrier),
// so the queue set goes to the collector with it. Cleanly committed streams
// never come through here — their ids are reused and their retained entries
// continue across incarnations. Caller holds ib.mu.
func (ib *inbox) drop(stream int) {
	if sq := ib.streams[stream]; sq != nil {
		if sq.pendingCounted {
			ib.pending--
		}
		if ib.depth != nil {
			buffered := 0
			for _, q := range sq.fifo {
				buffered += len(q)
			}
			ib.depth.Add(-int64(buffered))
		}
	}
	delete(ib.streams, stream)
}

// isDead reports whether the stream was squashed locally.
func (ib *inbox) isDead(stream int) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.dead[stream]
}

// await blocks until the head of every peer's FIFO for the stream is
// present, then pops and validates the heads against the expected
// (kind, stepsum). Frames already delivered win over a recorded failure — a
// broken peer must not swallow the round its final frames completed.
// Per-(peer, stream) FIFO order makes the arrival ordinal the round
// identity; a head with a mismatched header is protocol divergence and fails
// the round. A local squash of the stream unwinds the await with
// errSquashed.
func (ib *inbox) await(stream int, kind wire.StepKind, sum uint16, timeout time.Duration) ([]*wire.Frame, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.dead[stream] {
		return nil, errSquashed
	}
	sq := ib.get(stream)
	if sq.pendingCounted {
		sq.pendingCounted = false
		ib.pending--
	}
	sq.awaited = true
	parked := false
	defer func() {
		if parked {
			sq.waiting--
			ib.waiters--
			if ib.waiters == 0 && ib.timer != nil {
				ib.timer.Stop()
			}
		}
	}()

	for {
		if ib.dead[stream] {
			return nil, errSquashed
		}
		if sq.nonEmpty == ib.n-1-sq.nDefaulted {
			ib.delivered++
			ib.depth.Add(-int64(ib.n - 1 - sq.nDefaulted))
			if sq.heads == nil {
				sq.heads = make([]*wire.Frame, ib.n)
			}
			heads := sq.heads
			for j := 0; j < ib.n; j++ {
				if j == ib.me {
					continue
				}
				if sq.defaulted != nil && sq.defaulted[j] {
					// A defaulted peer contributes a synthesized payload-free
					// frame: the exact wire image of ⊥ (Sync sees no single
					// payload, Exchange sees no messages), aligned with the
					// round by construction.
					heads[j] = &wire.Frame{Kind: kind, StepSum: sum}
					continue
				}
				f := sq.fifo[j][0]
				sq.fifo[j][0] = nil
				sq.fifo[j] = sq.fifo[j][1:]
				if len(sq.fifo[j]) == 0 {
					sq.nonEmpty--
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
			if j == ib.me || len(sq.fifo[j]) > 0 || (sq.defaulted != nil && sq.defaulted[j]) {
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
			// Graceful degradation: default the down peers for this stream —
			// their rounds complete with synthesized ⊥ frames from here on —
			// unless that would exceed the degrade bound. Frames they
			// delivered before breaking were consumed by earlier rounds, so
			// the synthesis starts exactly where their real traffic ended.
			if !ib.defaultDownLocked(sq) {
				return nil, &peerFault{fmt.Errorf("degrade bound %d exceeded: %w", ib.degrade, cause)}
			}
			if !liveMissing {
				continue // the head row is complete now; take the pop path
			}
		}
		if ib.timedOut {
			var missing []int
			for j := 0; j < ib.n; j++ {
				if j != ib.me && len(sq.fifo[j]) == 0 && (sq.defaulted == nil || !sq.defaulted[j]) {
					missing = append(missing, j)
				}
			}
			return nil, fmt.Errorf("no round completed for %v while waiting for frames from nodes %v on stream %d", timeout, missing, stream)
		}
		if !parked {
			parked = true
			sq.waiting++
			ib.waiters++
			if ib.waiters == 1 {
				ib.armTimerLocked(timeout)
			}
		}
		sq.cond.Wait()
	}
}

// defaultDownLocked marks every down peer the stream's head row is missing
// as defaulted for this stream, so its rounds complete with synthesized ⊥
// frames. It reports false — without marking further peers — when defaulting
// would push the count of distinct degraded peers past the bound. Caller
// holds ib.mu.
func (ib *inbox) defaultDownLocked(sq *streamQueues) bool {
	// Check the bound before marking anything: a failed degrade must leave
	// the attribution set untouched (partial marks would misattribute).
	newDistinct := 0
	for j := 0; j < ib.n; j++ {
		if j == ib.me || ib.down[j] == nil || len(sq.fifo[j]) > 0 {
			continue
		}
		if sq.defaulted != nil && sq.defaulted[j] {
			continue
		}
		if ib.degradedSet == nil || !ib.degradedSet[j] {
			newDistinct++
		}
	}
	if ib.nDegraded+newDistinct > ib.degrade {
		return false
	}
	for j := 0; j < ib.n; j++ {
		if j == ib.me || ib.down[j] == nil || len(sq.fifo[j]) > 0 {
			continue
		}
		if sq.defaulted != nil && sq.defaulted[j] {
			continue
		}
		if ib.degradedSet == nil {
			ib.degradedSet = make([]bool, ib.n)
		}
		if !ib.degradedSet[j] {
			ib.degradedSet[j] = true
			ib.nDegraded++
		}
		if sq.defaulted == nil {
			sq.defaulted = make([]bool, ib.n)
		}
		sq.defaulted[j] = true
		sq.nDefaulted++
	}
	return true
}

// degradedPeers returns the distinct peers this inbox completed rounds
// against with synthesized ⊥ frames (the cycle's fault-attribution report).
func (ib *inbox) degradedPeers() []int {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	var peers []int
	for j, d := range ib.degradedSet {
		if d {
			peers = append(peers, j)
		}
	}
	return peers
}

// armTimerLocked (re)arms the node-wide progress timer. With the stall
// detector enabled the timer fires at stall granularity (detection within
// one period of the deadline) and the step timeout is judged across fires
// via lastProgress; without it the single period is the step timeout, as
// before. Arming restamps every peer's lastSeen: silence is measured from
// the start of the park window, so a peer idle while this node computed is
// not convicted the moment the node first parks. Caller holds ib.mu.
func (ib *inbox) armTimerLocked(timeout time.Duration) {
	period := timeout
	if ib.stallTimeout > 0 && ib.stallTimeout < period {
		period = ib.stallTimeout
	}
	ib.timerDur = timeout
	ib.timerPeriod = period
	ib.timerSnap = ib.delivered
	now := time.Now()
	ib.timerArmed = now
	ib.lastProgress = now
	if ib.stallTimeout > 0 {
		if ib.lastSeen == nil {
			ib.lastSeen = make([]time.Time, ib.n)
		}
		for j := range ib.lastSeen {
			ib.lastSeen[j] = now
		}
	}
	if ib.timer == nil {
		ib.timer = time.AfterFunc(period, ib.timerFire)
	} else {
		ib.timer.Reset(period)
	}
}

// timerFire is the progress timer callback: track progress while rounds
// complete (live progress elsewhere on the node — typically a speculative
// stream waiting out its own squash), convict individually stalled peers at
// stall granularity, and fail every parked await once a full step timeout
// passes with no progress at all.
func (ib *inbox) timerFire() {
	ib.mu.Lock()
	if ib.waiters == 0 {
		ib.mu.Unlock()
		return
	}
	now := time.Now()
	if remaining := ib.timerPeriod - now.Sub(ib.timerArmed); remaining > 0 {
		// A stale fire: the timer was stopped and re-armed while this
		// callback was blocked on the mutex. The current period has not
		// elapsed — sleep out its remainder instead of judging it early.
		ib.timer.Reset(remaining)
		ib.mu.Unlock()
		return
	}
	if ib.delivered != ib.timerSnap {
		ib.timerSnap = ib.delivered
		ib.lastProgress = now
	}
	if now.Sub(ib.lastProgress) >= ib.timerDur {
		ib.timedOut = true
		ib.wakeAllLocked()
		ib.mu.Unlock()
		return
	}
	var stalled []int
	if ib.stallTimeout > 0 {
		stalled = ib.stallCheckLocked(now)
	}
	ib.timerArmed = now
	ib.timer.Reset(ib.timerPeriod)
	ib.mu.Unlock()
	if ib.onStall != nil {
		for _, peer := range stalled {
			ib.onStall(peer)
		}
	}
}

// stallCheckLocked scans the streams a fiber is parked on for peers whose
// frame the round is missing and who delivered nothing anywhere on the node
// for a full stallTimeout, and marks them down — failing exactly the awaits
// that depend on them, like any other per-peer channel failure, but scoped
// to this inbox and hence to this cycle. Caller holds ib.mu.
func (ib *inbox) stallCheckLocked(now time.Time) []int {
	var stalled []int
	for _, sq := range ib.streams {
		if sq.waiting == 0 || sq.nonEmpty == ib.n-1-sq.nDefaulted {
			continue
		}
		for j := 0; j < ib.n; j++ {
			if j == ib.me || ib.down[j] != nil || len(sq.fifo[j]) > 0 {
				continue
			}
			if now.Sub(ib.lastSeen[j]) >= ib.stallTimeout {
				ib.down[j] = fmt.Errorf("peer %d stalled: no frame for %v while a round waits on it", j, ib.stallTimeout)
				stalled = append(stalled, j)
			}
		}
	}
	if len(stalled) > 0 {
		ib.wakeAllLocked()
	}
	return stalled
}
