// Package transport provides the message-passing substrate of the networked
// runtime (internal/node): authenticated, ordered, point-to-point frame
// channels between the n processors of a deployment — the paper's system
// model realised as I/O instead of shared memory.
//
// Two implementations are provided: an in-process channel bus (the fast path
// for tests and benchmarks) and a TCP mesh (length-prefixed frames over one
// connection per peer pair, with everything a node queues for one peer
// batched into one socket write). Both present the same Endpoint interface, so
// the node runtime, the consensus engine and the cluster command are
// transport-agnostic; the single-host simulator (internal/sim) remains the
// third backend, sharing the protocol code through sim.Backend rather than
// this interface because it delivers payloads by reference.
//
// The model guarantees carried by every implementation:
//
//   - sender authenticity: Frame.From is established by the transport (the
//     channel a frame arrived on), never by frame content;
//   - per-peer FIFO: frames from one peer arrive in the order sent;
//   - integrity is NOT guaranteed semantically — a Byzantine peer can send
//     arbitrary bytes, which is why frame decoding (internal/wire) is strict
//     and the receiving runtime treats every frame as adversarial input.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed endpoint once its receive
// queue has drained.
var ErrClosed = errors.New("transport: endpoint closed")

// PeerError reports a broken or misbehaving peer channel. In the lock-step
// protocols this runtime carries, a lost peer means the current round can
// never complete, so receivers treat it as fatal for the run in flight;
// whether the peer may ever come back is the Transient flag's call.
type PeerError struct {
	Peer int
	Err  error
	// Transient marks a recoverable channel loss — a dropped connection, a
	// truncated stream — as opposed to a protocol-level violation (oversized
	// frame declarations, handshake abuse), which convicts the peer
	// permanently. Transports with reconnect only re-dial transient losses,
	// and consumers scope transient failures to the cycle that observed them.
	Transient bool
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: peer %d: %v", e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Transient reports whether err describes a recoverable peer-channel loss
// (see PeerError.Transient). Errors that are not PeerErrors — mesh-fatal
// failures, protocol violations wrapped without the flag — are permanent.
func Transient(err error) bool {
	var pe *PeerError
	return errors.As(err, &pe) && pe.Transient
}

// RetryPolicy bounds a transport's peer-channel recovery: how aggressively a
// lost connection is re-dialed and when a flapping peer is demoted for good.
// The zero value enables recovery with the defaults below.
type RetryPolicy struct {
	// MinBackoff is the first re-dial delay (0 = 25ms). Each failed attempt
	// doubles it, capped at MaxBackoff, with up to 50% random jitter added so
	// a mesh-wide outage does not re-dial in lockstep.
	MinBackoff time.Duration
	// MaxBackoff caps the re-dial delay (0 = 1s).
	MaxBackoff time.Duration
	// MaxAttempts bounds re-dial attempts per outage before the channel is
	// demoted permanently (0 = 20; negative = unlimited).
	MaxAttempts int
	// MaxFlaps bounds how many times a peer's channel may be lost over the
	// endpoint's lifetime before it is demoted permanently — a flap budget,
	// so a pathologically unstable peer cannot keep a deployment churning
	// forever (0 = 64; negative = unlimited).
	MaxFlaps int
}

func (p RetryPolicy) minBackoff() time.Duration {
	if p.MinBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return p.MinBackoff
}

func (p RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return time.Second
	}
	if mb := p.minBackoff(); p.MaxBackoff < mb {
		return mb
	}
	return p.MaxBackoff
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts == 0 {
		return 20
	}
	if p.MaxAttempts < 0 {
		return 0 // unlimited
	}
	return p.MaxAttempts
}

func (p RetryPolicy) maxFlaps() int {
	if p.MaxFlaps == 0 {
		return 64
	}
	if p.MaxFlaps < 0 {
		return 0 // unlimited
	}
	return p.MaxFlaps
}

// Frame is one received message: opaque bytes from an authenticated sender.
type Frame struct {
	From int
	Data []byte
}

// Sink consumes delivered frames in the transport's delivery context — the
// in-process bus invokes it on the sender's goroutine, the TCP mesh on the
// per-connection reader. Implementations must be safe for concurrent calls
// (per-peer FIFO order is preserved per From; frames from different peers
// interleave) and must not block on protocol progress: a Deliver that waits
// for another frame deadlocks the mesh.
//
// Ownership of Frame.Data passes to the sink; once it is done decoding it
// should return the buffer via PutBuf so the sender/reader side can reuse
// it.
type Sink interface {
	Deliver(f Frame)
	// PeerDown reports a broken or misbehaving peer channel.
	PeerDown(peer int, err error)
}

// RecoverySink is an optional Sink extension: a transport with channel
// recovery (the TCP mesh's reconnect loop, the faulty-transport wrapper's
// heal) reports a re-established peer channel via PeerUp. Like the other
// sink callbacks it runs in the transport's delivery context and must not
// block. A sink that does not implement it simply never learns of
// recoveries — the channel then stays down from its point of view.
type RecoverySink interface {
	PeerUp(peer int)
}

// bufPool recycles frame byte buffers across the send and receive sides of
// the in-process hot path: a sender (or TCP connection reader) obtains a
// buffer with GetBuf, and the consuming sink returns it with PutBuf once
// decoded. sync.Pool tolerates unbalanced callers, so transports and tests
// that do not participate simply miss the reuse.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// GetBuf returns a pooled, zero-length byte buffer.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf recycles a buffer previously obtained from GetBuf (or any buffer
// whose ownership ends at the caller).
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	bufPool.Put(&b)
}

// Stats counts an endpoint's traffic in encoded on-wire bytes — the measured
// counterpart of the protocol-level bit meter. For TCP, bytes include the
// length prefix of every frame.
type Stats struct {
	FramesSent int64
	BytesSent  int64
	FramesRecv int64
	BytesRecv  int64
	// Writes counts the socket writes the endpoint issued (0 for the
	// in-process bus, which has no sockets). The TCP mesh batches everything
	// queued for one peer into one write, so FramesSent / Writes is the
	// measured coalescing factor.
	Writes int64
	// Conns counts the peer connections the endpoint established (n-1 per
	// TCP endpoint at mesh dial time; 0 for the in-process bus, which has no
	// connections). A consumer holding one mesh across many flush cycles
	// sees this stay flat — the persistent-mesh invariant — whereas
	// per-cycle redialing would grow it by n·(n-1) per cycle.
	Conns int64
	// Reconnects counts peer connections the endpoint re-established after a
	// transient loss (both ends count their own side of a healed channel).
	// Recovery does not grow Conns — that counter keeps proving the mesh was
	// dialed once — so reconnects are visible here and only here.
	Reconnects int64
	// PeerFlaps counts transient peer-channel losses observed by the
	// endpoint, whether or not the channel later recovered.
	PeerFlaps int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.FramesSent += other.FramesSent
	s.BytesSent += other.BytesSent
	s.FramesRecv += other.FramesRecv
	s.BytesRecv += other.BytesRecv
	s.Writes += other.Writes
	s.Conns += other.Conns
	s.Reconnects += other.Reconnects
	s.PeerFlaps += other.PeerFlaps
}

// Endpoint is one node's attachment to the deployment's n-processor mesh.
// Send is safe for concurrent use (a fleet's shards share one endpoint).
// Received frames reach the consumer either pushed to a Sink (SetSink) or
// pulled through Recv, never both: once a sink is set, Recv returns only
// ErrClosed at teardown.
type Endpoint interface {
	// NodeID returns this endpoint's processor id in [0, N).
	NodeID() int
	// N returns the deployment size.
	N() int
	// Send transmits data to the given peer. When Retains reports true the
	// slice must not be modified after Send returns nil (the implementation
	// keeps a reference); when it reports false the implementation has
	// copied the bytes by the time Send returns and the caller may recycle
	// the buffer. A nil return means the frame was accepted for delivery; a
	// channel that breaks afterwards is reported through the Sink or Recv.
	Send(to int, data []byte) error
	// Retains reports whether Send keeps a reference to the data slice
	// (true for the in-process bus, which moves frames by reference; false
	// for TCP, which copies into the peer's batch buffer). Callers use it to
	// gate send-buffer pooling.
	Retains() bool
	// SetSink switches the endpoint to push delivery: frames and peer
	// lifecycle events go synchronously to s in the transport's delivery
	// context — no receive queue hop, no dispatcher goroutine. Call it before
	// any traffic flows.
	SetSink(s Sink)
	// Recv blocks for the next received frame of an endpoint without a
	// sink. It returns a *PeerError when a peer channel breaks or
	// misbehaves, and ErrClosed after Close once all delivered frames have
	// been consumed.
	Recv() (Frame, error)
	// Close tears the endpoint down. Frames already received remain
	// readable via Recv.
	Close() error
	// Stats returns a snapshot of the endpoint's byte accounting.
	Stats() Stats
}

// Factory creates fully connected meshes on demand. The cluster runtime
// (internal/node) dials one mesh per Cluster and keeps it for the cluster's
// whole life, demultiplexing successive runs by an epoch tag in the frame
// headers — stale frames of an aborted run are discarded by tag, not fenced
// off by a mesh teardown.
type Factory interface {
	// Mesh returns n connected endpoints, endpoint i for processor i.
	Mesh(n int) ([]Endpoint, error)
	// Kind names the transport for reports ("bus", "tcp").
	Kind() string
}

// queue is an unbounded FIFO of received frames shared by the bus and TCP
// endpoints. Unboundedness is deliberate: the receiving dispatcher must
// always drain the wire (otherwise lock-step traffic could deadlock behind
// transport backpressure), and the protocols' barrier structure bounds the
// number of in-flight frames per peer anyway.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []Frame
	failed []error // peer failures delivered (in order) after the queued frames
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends a frame; it is dropped if the queue is already closed.
func (q *queue) push(f Frame) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, f)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// fail records a peer failure, delivered by pop after the queued frames.
// Every failure is kept: with several peers breaking in one window, each
// down-mark matters to the consuming runtime's round bookkeeping.
func (q *queue) fail(err error) {
	q.mu.Lock()
	if !q.closed {
		q.failed = append(q.failed, err)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// close makes pop return ErrClosed once the queue drains.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pop blocks for the next frame, a peer failure, or closure. Frames are
// delivered before a recorded failure (a broken peer must not swallow
// traffic that arrived first), and each failure is delivered exactly once so
// a consumer can keep draining frames from the surviving peers afterwards.
func (q *queue) pop() (Frame, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.items) > 0 {
			f := q.items[0]
			q.items[0] = Frame{}
			q.items = q.items[1:]
			return f, nil
		}
		if q.closed {
			return Frame{}, ErrClosed
		}
		if len(q.failed) > 0 {
			err := q.failed[0]
			q.failed = q.failed[1:]
			return Frame{}, err
		}
		q.cond.Wait()
	}
}
