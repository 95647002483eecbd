package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"byzcons/internal/obs"
)

// TCP wire format. Each connection starts with a hello — magic, protocol
// version, deployment size and the dialer's node id — and then carries
// length-prefixed frames: a uvarint byte count followed by the frame bytes.
// The prefix is bounded by MaxFrame before any allocation, so a Byzantine
// peer declaring a multi-gigabyte frame costs nothing but its connection.
var tcpMagic = [4]byte{'b', 'z', 'c', '1'}

const tcpVersion = 1

// DefaultMaxFrame bounds accepted frame sizes (16 MiB — comfortably above
// the largest protocol payload, a full batched consensus input).
const DefaultMaxFrame = 16 << 20

// TCPOptions tunes the TCP transport.
type TCPOptions struct {
	// MaxFrame is the largest accepted frame in bytes (0 = DefaultMaxFrame).
	// Frames declaring more are rejected and fail the sending peer's
	// channel.
	MaxFrame int
	// SetupTimeout bounds mesh construction: dials, handshakes and accepts
	// (0 = 10s). Reconnect handshakes reuse the same bound per attempt.
	SetupTimeout time.Duration
	// Retry governs peer-channel recovery: when a connection drops, the
	// dialing side of the pair re-dials with capped exponential backoff and
	// jitter, the accepting side keeps its listener open for re-handshakes,
	// and a recovered channel is announced to the sink via RecoverySink.
	// The zero value enables recovery with defaults.
	Retry RetryPolicy
	// Obs, when set, receives sampled write timing: every 16th socket write
	// of a peer's batch writer lands in the transport_write_ns histogram.
	// Sampling keeps the write path to one counter increment per batch; nil
	// disables timing entirely.
	Obs *obs.Registry
}

func (o TCPOptions) maxFrame() int {
	if o.MaxFrame <= 0 {
		return DefaultMaxFrame
	}
	return o.MaxFrame
}

func (o TCPOptions) setupTimeout() time.Duration {
	if o.SetupTimeout <= 0 {
		return 10 * time.Second
	}
	return o.SetupTimeout
}

// batchYieldBytes is the batch size below which a writer started by Send
// yields the processor once before it flushes. A round's frames to one peer
// are a few dozen bytes each and arrive from several goroutines (pipelined
// instances, shards); the yield lets the ones that are runnable right now
// add theirs, so the round costs one socket write per peer instead of one
// per frame. A batch already this large is written at
// once — a second write would be needed soon anyway.
const batchYieldBytes = 4 << 10

// maxRetainedBuf caps the capacity of a batch buffer a connection keeps for
// reuse, so one large frame does not pin its size on every connection for the
// mesh's whole life (two buffers on each of n(n-1) connections).
const maxRetainedBuf = 16 << 10

// closeDrainTimeout bounds how long Close waits for frames already accepted
// to reach the sockets: a peer that stopped reading cannot hang Close.
const closeDrainTimeout = time.Second

// ConnDropper is implemented by endpoints whose live peer connections can be
// severed on demand — the fault-injection hook chaos tests use to simulate a
// peer crash without reaching into transport internals. Dropping a
// connection closes it at the socket level, so both ends observe the loss
// exactly as they would a real failure (and recover through the same
// reconnect path, when enabled).
type ConnDropper interface {
	// DropConn severs the live connection to the given peer. It reports
	// whether there was one to drop.
	DropConn(peer int) bool
}

// connBox is one live peer connection and its batch buffers. The slot holding
// it is swapped atomically: readers and writers compare their own box against
// the slot to tell a superseded connection's teardown from the current one's.
//
// Send appends length-prefixed frames to pending under mu and returns; the
// first frame into an empty buffer queues the connection for one of the
// endpoint's writers (see tcpEndpoint.writer), which swaps pending against
// spare and issues one Write per swap until pending stays empty. The buffers
// belong to the connection: they are dropped with it on loss and a fresh
// connection starts with none, so a batch is never resumed mid-frame on
// another socket.
type connBox struct {
	peer int
	c    net.Conn

	mu      sync.Mutex
	idle    sync.Cond // signalled when the connection has been flushed; L is &mu
	pending []byte    // frames accepted, not yet handed to the socket
	spare   []byte    // the written-out buffer, kept for the next swap
	writing bool      // queued for a writer, or being flushed by one
	dead    bool      // lost or closing: accepts no more frames
}

func newConnBox(peer int, c net.Conn) *connBox {
	b := &connBox{peer: peer, c: c}
	b.idle.L = &b.mu
	return b
}

// peerLife is one peer channel's lifecycle state (guarded by tcpEndpoint.mu):
// the current failure (nil = healthy), whether it is permanent (protocol
// violation, exhausted retry or flap budget), the lifetime flap count, and
// whether a re-dial loop is already running for it.
type peerLife struct {
	down      error
	permanent bool
	flaps     int
	redialing bool
}

// tcpEndpoint is one node's end of a fully connected TCP mesh: one
// connection per peer, a reader goroutine per connection feeding the shared
// receive queue, and on-demand writers that put everything the node queued
// for one peer on the socket in one write (see connBox). With recovery
// enabled the endpoint also keeps its listener open for the mesh's whole
// life: the dialing side of a dropped pair re-dials with backoff, the
// accepting side re-handshakes fresh dials, and the slot's atomic connection
// box makes the swap safe against the old connection's reader and writer.
type tcpEndpoint struct {
	id    int
	n     int
	opt   TCPOptions
	addrs []string     // peer listen addresses, for re-dials
	ln    net.Listener // kept open for re-handshakes; nil when retry is disabled

	recv *queue
	// sink, when set (atomic.Value of Sink), receives inbound frames
	// directly on the per-connection reader goroutines instead of through
	// the recv queue (see Endpoint.SetSink).
	sink   atomic.Value
	conns  []atomic.Pointer[connBox] // indexed by peer id; nil slot = down (or self)
	closed atomic.Bool
	stop   chan struct{} // closed by Close; interrupts re-dial backoff sleeps
	// dialCtx is canceled by Close so a re-dial blocked inside connect(2)
	// aborts immediately — without it, Close during an active backoff window
	// would return promptly but leave the dial goroutine waiting out its
	// timeout. redials tracks those goroutines so Close can wait them out.
	dialCtx    context.Context
	dialCancel context.CancelFunc
	redials    sync.WaitGroup

	mu    sync.Mutex
	peers []peerLife

	// ready holds the connections with frames pending and no writer yet;
	// free counts the writer goroutines that are not inside a socket write
	// and so will come back for it (see writer). Both guarded by outMu.
	outMu sync.Mutex
	ready []*connBox
	free  int

	// framesSent and bytesSent count frames as Send accepts them, so Stats
	// is exact once senders are quiescent; writes counts socket writes.
	framesSent atomic.Int64
	bytesSent  atomic.Int64
	writes     atomic.Int64
	framesRecv atomic.Int64
	bytesRecv  atomic.Int64
	// connsOpened counts established peer connections (n-1 at mesh dial
	// time); it only ever grows at dial, so a flat reading across flush
	// cycles proves the mesh was reused rather than rebuilt. Recovery is
	// accounted separately (reconnects), so the invariant survives flaps.
	connsOpened atomic.Int64
	reconnects  atomic.Int64
	flaps       atomic.Int64

	// writeLat, when non-nil, records every 16th socket write's duration
	// (see TCPOptions.Obs).
	writeLat *obs.Histogram
}

// SetSink implements Endpoint.
func (ep *tcpEndpoint) SetSink(s Sink) { ep.sink.Store(&s) }

func (ep *tcpEndpoint) NodeID() int { return ep.id }
func (ep *tcpEndpoint) N() int      { return ep.n }

// Retains implements Endpoint: Send copies the frame into the peer's batch
// buffer before returning, so callers may recycle the slice.
func (ep *tcpEndpoint) Retains() bool { return false }

// Send queues data for the peer as one length-prefixed frame and returns; the
// connection's writer puts it on the socket, batched with whatever else was
// queued for that peer meanwhile. A nil return therefore means accepted, not
// written: a later write failure surfaces as a PeerDown, exactly like a loss
// the reader notices. Send to a peer whose channel is down fails at once.
func (ep *tcpEndpoint) Send(to int, data []byte) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= ep.n || to == ep.id {
		return fmt.Errorf("transport: bad destination %d from node %d", to, ep.id)
	}
	box := ep.conns[to].Load()
	if box == nil {
		return ep.downErr(to)
	}
	box.mu.Lock()
	if box.dead {
		// Lost or closed between the slot load and the lock.
		box.mu.Unlock()
		if ep.closed.Load() {
			return ErrClosed
		}
		return ep.downErr(to)
	}
	if backlog, limit := len(box.pending), 2*ep.opt.maxFrame(); backlog > limit {
		// The peer stopped reading: its writer sits in a blocked Write while
		// frames pile up behind it. Dropping the connection frees the buffer
		// and the writer; the flap budget demotes a repeat offender.
		box.mu.Unlock()
		err := fmt.Errorf("send backlog of %d bytes exceeds limit %d", backlog, limit)
		ep.connLost(to, box, err, true)
		return &PeerError{Peer: to, Err: err, Transient: true}
	}
	before := len(box.pending)
	box.pending = binary.AppendUvarint(box.pending, uint64(len(data)))
	box.pending = append(box.pending, data...)
	ep.framesSent.Add(1)
	ep.bytesSent.Add(int64(len(box.pending) - before))
	queue := !box.writing
	box.writing = true
	yield := len(box.pending) < batchYieldBytes
	box.mu.Unlock()
	if queue {
		ep.outMu.Lock()
		ep.ready = append(ep.ready, box)
		start := ep.free == 0
		if start {
			ep.free++
		}
		ep.outMu.Unlock()
		if start {
			go ep.writer(yield)
		}
	}
	return nil
}

// writer flushes queued connections, one after the other, until none is
// queued, then exits: an idle endpoint parks no goroutine. Normally one writer
// serves all of a node's peers, so a round costs one goroutine start per node,
// not per peer. What keeps a peer that stopped reading from holding up the
// others is the hand-over in flush: a writer about to enter a Write that may
// block first makes sure another one is free to take the queue.
func (ep *tcpEndpoint) writer(yield bool) {
	if yield {
		runtime.Gosched()
	}
	for {
		ep.outMu.Lock()
		last := len(ep.ready) - 1
		if last < 0 {
			ep.free--
			ep.outMu.Unlock()
			return
		}
		box := ep.ready[last]
		ep.ready[last] = nil
		ep.ready = ep.ready[:last]
		ep.outMu.Unlock()
		ep.flush(box)
	}
}

// flush writes out whatever is pending on one connection, one Write per
// buffer swap, until nothing is. A failed write goes through connLost like a
// failed read, so whichever side notices a loss first attributes it, once.
func (ep *tcpEndpoint) flush(box *connBox) {
	box.mu.Lock()
	for len(box.pending) > 0 {
		buf := box.pending
		box.pending, box.spare = box.spare[:0], nil
		box.mu.Unlock()

		// This goroutine is not free while it is in the socket. If that
		// leaves nobody for the connections still queued, start their writer.
		ep.outMu.Lock()
		ep.free--
		start := ep.free == 0 && len(ep.ready) > 0
		if start {
			ep.free++
		}
		ep.outMu.Unlock()
		if start {
			go ep.writer(false)
		}
		timed := ep.writes.Add(1)&15 == 0 && ep.writeLat != nil
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		_, err := box.c.Write(buf)
		if timed && err == nil {
			ep.writeLat.Record(int64(time.Since(t0)))
		}
		ep.outMu.Lock()
		ep.free++
		ep.outMu.Unlock()
		if err != nil {
			ep.connLost(box.peer, box, fmt.Errorf("write failed: %w", err), true)
		}

		box.mu.Lock()
		if cap(buf) <= maxRetainedBuf {
			box.spare = buf[:0]
		}
	}
	box.writing = false
	box.idle.Broadcast()
	box.mu.Unlock()
}

// downErr returns the recorded failure behind an empty connection slot,
// transient while a reconnect may still be in flight.
func (ep *tcpEndpoint) downErr(peer int) error {
	ep.mu.Lock()
	err := ep.peers[peer].down
	permanent := ep.peers[peer].permanent
	ep.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("peer %d channel down", peer)
	}
	return &PeerError{Peer: peer, Err: err, Transient: !permanent}
}

func (ep *tcpEndpoint) Recv() (Frame, error) {
	return ep.recv.pop()
}

// DropConn implements ConnDropper: it closes the live connection to peer at
// the socket level, so both ends' readers observe the loss like a real
// failure.
func (ep *tcpEndpoint) DropConn(peer int) bool {
	if peer < 0 || peer >= ep.n || peer == ep.id {
		return false
	}
	box := ep.conns[peer].Load()
	if box == nil {
		return false
	}
	box.c.Close()
	return true
}

func (ep *tcpEndpoint) Close() error {
	if !ep.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(ep.stop)
	ep.dialCancel()
	if ep.ln != nil {
		ep.ln.Close()
	}
	// Frames Send accepted before this point still go out: a node that
	// finished its run closes while peers one step behind wait for its last
	// frames. Each connection stops accepting, its writer drains under a
	// shared write deadline, and only then is the socket closed. The slots
	// are emptied first, so a writer or reader failing from here on finds
	// its connection superseded and reports nothing.
	deadline := time.Now().Add(closeDrainTimeout)
	for i := range ep.conns {
		box := ep.conns[i].Swap(nil)
		if box == nil {
			continue
		}
		box.c.SetWriteDeadline(deadline)
		box.mu.Lock()
		box.dead = true
		for box.writing {
			box.idle.Wait()
		}
		box.mu.Unlock()
		box.c.Close()
	}
	ep.recv.close()
	// Flush any connLost critical section in flight: once this mutex cycles,
	// every later loss sees closed and registers no redial, so the Wait
	// below can race with no Add (a redial decided before the cycle already
	// added inside its critical section).
	ep.mu.Lock()
	ep.mu.Unlock() //nolint:staticcheck // empty section is the point: a barrier
	// Re-dial loops exit promptly: the stop channel interrupts backoff
	// sleeps and the canceled dial context aborts an in-flight connect, so
	// this wait bounds Close by a goroutine handoff, not a retry budget.
	ep.redials.Wait()
	return nil
}

func (ep *tcpEndpoint) Stats() Stats {
	return Stats{
		FramesSent: ep.framesSent.Load(),
		BytesSent:  ep.bytesSent.Load(),
		Writes:     ep.writes.Load(),
		FramesRecv: ep.framesRecv.Load(),
		BytesRecv:  ep.bytesRecv.Load(),
		Conns:      ep.connsOpened.Load(),
		Reconnects: ep.reconnects.Load(),
		PeerFlaps:  ep.flaps.Load(),
	}
}

// readFrom is the per-connection reader: it decodes length-prefixed frames
// from peer and feeds the receive queue until the connection breaks or the
// endpoint closes. Read failures are transient channel losses (the peer may
// come back); an oversized declaration is a protocol violation and convicts
// the peer permanently. Whether a loss is fatal for the run in flight is the
// consuming runtime's call (for lock-step consensus it is).
func (ep *tcpEndpoint) readFrom(peer int, box *connBox) {
	conn := box.c
	r := bufio.NewReader(conn)
	maxFrame := uint64(ep.opt.maxFrame())
	for {
		size, err := binary.ReadUvarint(r)
		if err != nil {
			ep.connLost(peer, box, fmt.Errorf("connection lost: %w", err), true)
			return
		}
		if size > maxFrame {
			ep.connLost(peer, box, fmt.Errorf("oversized frame: %d bytes exceeds limit %d", size, maxFrame), false)
			return
		}
		// Frame buffers are pooled: the consuming sink returns them via
		// PutBuf once decoded. In queue mode ownership likewise passes to
		// whoever drains Recv.
		data := GetBuf()
		if cap(data) < int(size) {
			PutBuf(data)
			data = make([]byte, size)
		}
		data = data[:size]
		if _, err := io.ReadFull(r, data); err != nil {
			ep.connLost(peer, box, fmt.Errorf("truncated frame: %w", err), true)
			return
		}
		ep.framesRecv.Add(1)
		ep.bytesRecv.Add(int64(size) + int64(uvarintLen(size)))
		if s := ep.sink.Load(); s != nil {
			(*s.(*Sink)).Deliver(Frame{From: peer, Data: data})
			continue
		}
		ep.recv.push(Frame{From: peer, Data: data})
	}
}

// connLost tears one peer connection down and records the failure. The
// connection's reader and writer both report here: the slot is cleared only
// if it still holds this connection (the other of the two, or a reconnect,
// may already have replaced it, in which case the loss is stale and silent),
// frames still pending on it are discarded, the flap is accounted against
// the peer's budget, the sink or queue is notified, and — for a transient
// loss on the dialing side of the pair, with retry enabled — a re-dial loop
// is started.
func (ep *tcpEndpoint) connLost(peer int, box *connBox, err error, transient bool) {
	current := ep.conns[peer].CompareAndSwap(box, nil)
	box.c.Close()
	box.mu.Lock()
	box.dead = true
	box.pending = nil
	box.mu.Unlock()
	if !current || ep.closed.Load() {
		// Superseded by a newer connection, or a deliberate local Close — in
		// neither case is this a live peer failure.
		return
	}
	retry := ep.opt.Retry
	ep.mu.Lock()
	pl := &ep.peers[peer]
	if pl.permanent {
		err = pl.down
		ep.mu.Unlock()
		ep.notifyDown(peer, err, false)
		return
	}
	if transient {
		pl.flaps++
		ep.flaps.Add(1)
		if budget := retry.maxFlaps(); budget > 0 && pl.flaps > budget {
			transient = false
			err = fmt.Errorf("peer channel flapped %d times (budget %d), demoted permanently: %w", pl.flaps, budget, err)
		}
	}
	pl.down = err
	pl.permanent = !transient
	// The redial is registered on the WaitGroup inside the critical section,
	// re-checking closed there: Close sets closed and then passes through
	// this mutex before it waits, so a loss that slipped past the earlier
	// closed check can never Add against a Wait already in progress.
	redial := transient && peer < ep.id && !pl.redialing && !ep.closed.Load()
	if redial {
		pl.redialing = true
		ep.redials.Add(1)
	}
	ep.mu.Unlock()
	ep.notifyDown(peer, err, transient)
	if redial {
		go func() {
			defer ep.redials.Done()
			ep.redial(peer)
		}()
	}
}

// notifyDown reports a broken peer channel to the sink (or the Recv queue
// when no sink is set) unless the endpoint itself is closing — a deliberate
// local Close is not a peer failure.
func (ep *tcpEndpoint) notifyDown(peer int, err error, transient bool) {
	if ep.closed.Load() {
		return
	}
	pe := &PeerError{Peer: peer, Err: err, Transient: transient}
	if s := ep.sink.Load(); s != nil {
		(*s.(*Sink)).PeerDown(peer, pe)
		return
	}
	ep.recv.fail(pe)
}

// notifyUp announces a recovered peer channel to a recovery-aware sink.
func (ep *tcpEndpoint) notifyUp(peer int) {
	if ep.closed.Load() {
		return
	}
	if s := ep.sink.Load(); s != nil {
		if rs, ok := (*s.(*Sink)).(RecoverySink); ok {
			rs.PeerUp(peer)
		}
	}
}

// install wires a fresh (handshaked) connection into the peer's slot, starts
// its reader and announces the recovery. It refuses permanently demoted
// peers and loses gracefully against a concurrent Close.
func (ep *tcpEndpoint) install(peer int, conn net.Conn) bool {
	ep.mu.Lock()
	if ep.closed.Load() || ep.peers[peer].permanent {
		ep.mu.Unlock()
		conn.Close()
		return false
	}
	ep.peers[peer].down = nil
	ep.peers[peer].redialing = false
	ep.mu.Unlock()
	box := newConnBox(peer, conn)
	if old := ep.conns[peer].Swap(box); old != nil {
		// A half-open leftover: the remote noticed the loss and re-dialed
		// before our reader did. Closing it here makes that reader's
		// eventual error a stale, silent one.
		old.c.Close()
	}
	if ep.closed.Load() {
		// Raced Close's teardown sweep: undo.
		if ep.conns[peer].CompareAndSwap(box, nil) {
			conn.Close()
		}
		return false
	}
	ep.reconnects.Add(1)
	go ep.readFrom(peer, box)
	ep.notifyUp(peer)
	return true
}

// redial is the per-outage reconnect loop run by the dialing side of a pair
// (the higher id dials the lower, at mesh setup and ever after): capped
// exponential backoff with jitter, a fresh handshake per attempt, permanent
// demotion when the attempt budget runs out.
func (ep *tcpEndpoint) redial(peer int) {
	retry := ep.opt.Retry
	backoff := retry.minBackoff()
	maxBackoff := retry.maxBackoff()
	var lastErr error
	for attempt := 1; ; attempt++ {
		delay := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		t := time.NewTimer(delay)
		select {
		case <-ep.stop:
			t.Stop()
			return
		case <-t.C:
		}
		if ep.closed.Load() {
			return
		}
		// DialContext, not DialTimeout: the endpoint's dial context is
		// canceled by Close, so a Session teardown mid-attempt aborts the
		// connect instead of waiting out the setup timeout.
		dialer := net.Dialer{Timeout: ep.opt.setupTimeout()}
		conn, err := dialer.DialContext(ep.dialCtx, "tcp", ep.addrs[peer])
		if err == nil {
			err = writeHello(conn, ep.n, ep.id, time.Now().Add(ep.opt.setupTimeout()))
			if err == nil {
				ep.install(peer, conn)
				return
			}
			conn.Close()
		}
		lastErr = err
		if budget := retry.maxAttempts(); budget > 0 && attempt >= budget {
			derr := fmt.Errorf("reconnect to peer %d failed after %d attempts, demoted permanently: %w", peer, attempt, lastErr)
			ep.mu.Lock()
			pl := &ep.peers[peer]
			pl.redialing = false
			pl.permanent = true
			pl.down = derr
			ep.mu.Unlock()
			ep.notifyDown(peer, derr, false)
			return
		}
		backoff = min(2*backoff, maxBackoff)
	}
}

// acceptLoop keeps the endpoint's listener serving re-handshakes for the
// mesh's whole life: a valid hello from a higher-id peer (the pair's
// designated dialer) replaces that peer's connection slot. It exits when
// Close closes the listener.
func (ep *tcpEndpoint) acceptLoop() {
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			from, err := readHello(conn, ep.n, time.Now().Add(ep.opt.setupTimeout()))
			if err != nil || from <= ep.id || from >= ep.n {
				conn.Close()
				return
			}
			ep.install(from, conn)
		}(conn)
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// NewTCPMesh builds a fully connected loopback TCP mesh of n endpoints: n
// listeners on 127.0.0.1, every pair connected by exactly one handshaked
// connection (the higher id dials the lower). It returns only when every
// connection is established, so the caller holds a ready mesh or an error —
// never a half-connected one. Listeners stay open for the endpoints' whole
// life so dropped connections can be re-dialed and re-handshaked.
func NewTCPMesh(n int, opt TCPOptions) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: mesh needs n >= 1, got %d", n)
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, fmt.Errorf("transport: listen for node %d: %w", i, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}

	eps := make([]*tcpEndpoint, n)
	for i := range eps {
		dialCtx, dialCancel := context.WithCancel(context.Background())
		eps[i] = &tcpEndpoint{
			id: i, n: n, opt: opt, addrs: addrs,
			recv:       newQueue(),
			conns:      make([]atomic.Pointer[connBox], n),
			peers:      make([]peerLife, n),
			stop:       make(chan struct{}),
			dialCtx:    dialCtx,
			dialCancel: dialCancel,
			writeLat:   opt.Obs.Histogram("transport_write_ns"),
		}
	}

	deadline := time.Now().Add(opt.setupTimeout())
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- meshNode(eps[i], lns[i], addrs, deadline)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			for _, ep := range eps {
				ep.Close()
			}
			closeAll(lns)
			return nil, err
		}
	}
	// Mesh complete: start the readers. The listeners stay attached: each
	// endpoint keeps accepting re-handshakes from the peers that dial it.
	out := make([]Endpoint, n)
	for i, ep := range eps {
		for peer := range ep.conns {
			if box := ep.conns[peer].Load(); box != nil {
				ep.connsOpened.Add(1)
				go ep.readFrom(peer, box)
			}
		}
		type lnDeadline interface{ SetDeadline(time.Time) error }
		if d, ok := lns[i].(lnDeadline); ok {
			d.SetDeadline(time.Time{}) // undo the setup deadline
		}
		ep.ln = lns[i]
		go ep.acceptLoop()
		out[i] = ep
	}
	return out, nil
}

// meshNode establishes node i's connections: dial every lower peer, accept
// every higher one, handshaking both ways.
func meshNode(ep *tcpEndpoint, ln net.Listener, addrs []string, deadline time.Time) error {
	i := ep.id
	for j := 0; j < i; j++ {
		conn, err := net.DialTimeout("tcp", addrs[j], time.Until(deadline))
		if err != nil {
			return fmt.Errorf("transport: node %d dial node %d: %w", i, j, err)
		}
		if err := writeHello(conn, ep.n, i, deadline); err != nil {
			conn.Close()
			return fmt.Errorf("transport: node %d hello to node %d: %w", i, j, err)
		}
		ep.conns[j].Store(newConnBox(j, conn))
	}
	type lnDeadline interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(lnDeadline); ok {
		d.SetDeadline(deadline)
	}
	for k := i + 1; k < ep.n; k++ {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: node %d accept: %w", i, err)
		}
		from, err := readHello(conn, ep.n, deadline)
		if err != nil {
			conn.Close()
			return fmt.Errorf("transport: node %d handshake: %w", i, err)
		}
		if from <= i || from >= ep.n || ep.conns[from].Load() != nil {
			conn.Close()
			return fmt.Errorf("transport: node %d got hello from unexpected peer %d", i, from)
		}
		ep.conns[from].Store(newConnBox(from, conn))
	}
	return nil
}

func writeHello(conn net.Conn, n, from int, deadline time.Time) error {
	conn.SetWriteDeadline(deadline)
	defer conn.SetWriteDeadline(time.Time{})
	buf := append([]byte{}, tcpMagic[:]...)
	buf = append(buf, tcpVersion)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(from))
	_, err := conn.Write(buf)
	return err
}

// byteReader reads a connection one byte at a time — the hello decoder must
// not buffer past the handshake, because a reconnecting dialer may pipeline
// frames right behind its hello and those bytes belong to the frame reader.
type byteReader struct {
	conn net.Conn
	buf  [1]byte
}

func (br *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(br.conn, br.buf[:]); err != nil {
		return 0, err
	}
	return br.buf[0], nil
}

func readHello(conn net.Conn, n int, deadline time.Time) (int, error) {
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	var magic [5]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return 0, err
	}
	if [4]byte(magic[:4]) != tcpMagic || magic[4] != tcpVersion {
		return 0, fmt.Errorf("bad magic/version %x", magic)
	}
	r := &byteReader{conn: conn}
	gotN, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if gotN != uint64(n) {
		return 0, fmt.Errorf("peer built for n=%d, want n=%d", gotN, n)
	}
	from, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	return int(from), nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// TCPFactory creates loopback TCP meshes.
type TCPFactory struct {
	Options TCPOptions
}

// Mesh implements Factory.
func (f TCPFactory) Mesh(n int) ([]Endpoint, error) {
	return NewTCPMesh(n, f.Options)
}

// Kind implements Factory.
func (TCPFactory) Kind() string { return "tcp" }
