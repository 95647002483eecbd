package transport

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultyFactory wraps another transport factory and injects peer-channel
// faults deterministically. It is the chaos layer's injection surface:
//
//   - CutPair / HealPair sever and restore one pair's channel in both
//     directions — sends fail, deliveries are blackholed, and both sinks
//     observe a transient PeerDown (HealPair announces recovery via
//     RecoverySink).
//   - Partition / HealAll generalize cuts to node sets: every cross-group
//     channel is cut, every intra-group channel healed, in one atomic sweep.
//   - IsolateNode / HealNode cut one node off from every peer — the
//     transport-level image of a crashed node.
//   - DelayPair / DelayAll / HealDelays inject per-channel delivery latency
//     with bounded deterministic jitter. A delay is a latency, not a
//     serializer: a burst of frames sent together arrives together, one
//     delay later. Delays apply at the receiver: each (receiver, sender)
//     channel releases frames in FIFO order with monotone release times, so
//     the per-peer FIFO guarantee the round synchronizer depends on
//     survives, while differential delays across senders reorder frames
//     between peers and streams — exactly the reordering the
//     synchronous-round model permits.
//
// The wrapper operates above the inner transport, so every primitive
// composes with any backend (bus or TCP) and gives chaos schedules an exact
// analogue of real network faults: a cut between two flush cycles models a
// one-cycle outage, a cut before a cycle models a peer that is down when the
// cycle starts, a delay storm models congestion without breaking channels.
type FaultyFactory struct {
	Inner Factory
	// Seed drives the deterministic jitter stream of injected delays; each
	// endpoint derives its own sub-generator, so one seed replays one jitter
	// timeline per receiver. Set before Mesh.
	Seed int64

	mu  sync.Mutex
	eps []*faultyEndpoint
}

// Mesh implements Factory. A FaultyFactory wraps exactly one mesh: calling
// Mesh again would silently detach the fault state already injected into the
// first one, so re-entry is an error.
func (f *FaultyFactory) Mesh(n int) ([]Endpoint, error) {
	f.mu.Lock()
	already := f.eps != nil
	f.mu.Unlock()
	if already {
		return nil, fmt.Errorf("transport: FaultyFactory.Mesh called twice (one factory wraps one mesh; its fault state cannot span two)")
	}
	inner, err := f.Inner.Mesh(n)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.eps != nil {
		return nil, fmt.Errorf("transport: FaultyFactory.Mesh called twice (one factory wraps one mesh; its fault state cannot span two)")
	}
	f.eps = make([]*faultyEndpoint, n)
	out := make([]Endpoint, n)
	for i := range inner {
		fe := &faultyEndpoint{
			inner:     inner[i],
			chans:     make([]chanFault, n),
			jitter:    rand.New(rand.NewSource(f.Seed*0x5851F42D4C957F2D + int64(i) + 1)),
			delayWake: make(chan struct{}, 1),
		}
		inner[i].SetSink(&filterSink{ep: fe})
		f.eps[i] = fe
		out[i] = fe
	}
	return out, nil
}

// Kind implements Factory, keeping the inner transport's name so consumers'
// reporting is unchanged.
func (f *FaultyFactory) Kind() string { return f.Inner.Kind() }

// endpoints returns the mesh's endpoints, validating that Mesh ran and that
// every operand node id is in range. Injection before the mesh exists (or at
// a node that does not) is a harness bug; it panics with a clear message
// instead of the old nil-slice index crash.
func (f *FaultyFactory) endpoints(op string, ids ...int) []*faultyEndpoint {
	f.mu.Lock()
	eps := f.eps
	f.mu.Unlock()
	if eps == nil {
		panic("transport: FaultyFactory." + op + " called before Mesh built the endpoints")
	}
	for _, id := range ids {
		if id < 0 || id >= len(eps) {
			panic(fmt.Sprintf("transport: FaultyFactory.%s: node %d out of range [0,%d)", op, id, len(eps)))
		}
	}
	return eps
}

// CutPair severs the channel between nodes i and j in both directions.
func (f *FaultyFactory) CutPair(i, j int) {
	eps := f.endpoints("CutPair", i, j)
	eps[i].setCut(j, true)
	eps[j].setCut(i, true)
}

// HealPair restores the channel between nodes i and j in both directions.
func (f *FaultyFactory) HealPair(i, j int) {
	eps := f.endpoints("HealPair", i, j)
	eps[i].setCut(j, false)
	eps[j].setCut(i, false)
}

// Partition reshapes the whole mesh's cut state in one sweep: nodes in
// different groups lose their channels, nodes in the same group keep (or
// regain) theirs. Nodes not listed in any group form one implicit group of
// their own — Partition([]int{3}) isolates node 3 from everyone else, and
// Partition(nil...) with no groups is equivalent to HealAll. A node listed
// in two groups is an error.
func (f *FaultyFactory) Partition(groups ...[]int) error {
	eps := f.endpoints("Partition")
	n := len(eps)
	group := make([]int, n)
	for i := range group {
		group[i] = -1
	}
	for g, members := range groups {
		for _, id := range members {
			if id < 0 || id >= n {
				return fmt.Errorf("transport: Partition: node %d out of range [0,%d)", id, n)
			}
			if group[id] != -1 {
				return fmt.Errorf("transport: Partition: node %d listed in two groups", id)
			}
			group[id] = g
		}
	}
	for i := range group {
		if group[i] == -1 {
			group[i] = len(groups) // the implicit remainder group
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cut := group[i] != group[j]
			eps[i].setCut(j, cut)
			eps[j].setCut(i, cut)
		}
	}
	return nil
}

// HealAll restores a pristine mesh: every cut is healed and every injected
// delay and jitter removed. Frames already queued behind a delay
// still release on their original schedule (draining them early would
// reorder a channel against itself).
func (f *FaultyFactory) HealAll() {
	eps := f.endpoints("HealAll")
	for i := range eps {
		for j := range eps {
			if i != j {
				eps[i].setCut(j, false)
			}
		}
		eps[i].clearDelays()
	}
}

// IsolateNode cuts node i off from every peer in both directions — the
// transport-level image of a crashed node: its sends fail, nothing it emits
// is delivered, and every peer observes a transient channel loss.
func (f *FaultyFactory) IsolateNode(i int) {
	eps := f.endpoints("IsolateNode", i)
	for j := range eps {
		if j != i {
			eps[i].setCut(j, true)
			eps[j].setCut(i, true)
		}
	}
}

// HealNode undoes IsolateNode: node i's channels to every peer are restored
// and both ends observe the recovery (PeerUp), so the node rejoins at the
// next epoch boundary.
func (f *FaultyFactory) HealNode(i int) {
	eps := f.endpoints("HealNode", i)
	for j := range eps {
		if j != i {
			eps[i].setCut(j, false)
			eps[j].setCut(i, false)
		}
	}
}

// DelayPair injects delivery latency on the channel between nodes i and j in
// both directions: every frame waits d plus a deterministic jitter in
// [0, jitter] — or, if later, until the channel's previous frame is
// released — before reaching the consumer's sink. Per-channel FIFO order is
// preserved (release times are monotone per sender); reordering happens only
// across senders, which the model permits. d <= 0 with jitter <= 0 removes
// the pair's delay.
func (f *FaultyFactory) DelayPair(i, j int, d, jitter time.Duration) {
	eps := f.endpoints("DelayPair", i, j)
	eps[i].setDelay(j, d, jitter)
	eps[j].setDelay(i, d, jitter)
}

// DelayAll injects the same delivery latency on every channel of the mesh —
// a mesh-wide delay storm. HealDelays (or HealAll) ends it.
func (f *FaultyFactory) DelayAll(d, jitter time.Duration) {
	eps := f.endpoints("DelayAll")
	for i := range eps {
		for j := range eps {
			if i != j {
				eps[i].setDelay(j, d, jitter)
			}
		}
	}
}

// HealDelays removes every injected delay and jitter, mesh-wide.
// Frames already queued keep their assigned release times.
func (f *FaultyFactory) HealDelays() {
	eps := f.endpoints("HealDelays")
	for i := range eps {
		eps[i].clearDelays()
	}
}

// errInjected is the failure a cut channel reports.
type errInjected struct{ peer int }

func (e errInjected) Error() string {
	return fmt.Sprintf("injected fault: channel to peer %d cut", e.peer)
}

// chanFault is one (receiver, sender) channel's injected fault state.
type chanFault struct {
	cut    bool
	delay  time.Duration
	jitter time.Duration
	// lastRelease is the release time assigned to the channel's most recent
	// delayed frame; keeping each new release at or after it preserves the
	// per-channel FIFO guarantee whatever the delay parameters do.
	lastRelease time.Time
	// pending counts the channel's frames still queued in the delayer; a
	// healed channel keeps routing through the queue until it drains, so a
	// late heal cannot reorder a channel against itself.
	pending int
}

// delayed reports whether deliveries on the channel must go through the
// delay queue.
func (c *chanFault) delayed() bool {
	return c.delay > 0 || c.jitter > 0 || c.pending > 0
}

// faultyEndpoint is one node's fault-filtered view of its inner endpoint.
type faultyEndpoint struct {
	inner Endpoint

	mu     sync.Mutex
	chans  []chanFault
	sink   Sink       // the consumer's sink, when one was set
	jitter *rand.Rand // deterministic jitter stream (guarded by mu)

	// Delay queue: frames under injected latency wait here, released in
	// global release-time order by a single lazily-started drain goroutine
	// per endpoint (running only while frames are queued, so an idle or
	// fault-free endpoint costs no goroutine).
	dq           delayHeap
	dqSeq        uint64
	delayRunning bool
	delayClosed  bool
	delayWake    chan struct{} // cap 1; nudges the drainer on earlier work / close
}

func (ep *faultyEndpoint) NodeID() int   { return ep.inner.NodeID() }
func (ep *faultyEndpoint) N() int        { return ep.inner.N() }
func (ep *faultyEndpoint) Retains() bool { return ep.inner.Retains() }
func (ep *faultyEndpoint) Stats() Stats  { return ep.inner.Stats() }
func (ep *faultyEndpoint) Recv() (Frame, error) {
	return ep.inner.Recv()
}

// Close drops queued delayed frames and closes the inner endpoint.
func (ep *faultyEndpoint) Close() error {
	ep.mu.Lock()
	ep.delayClosed = true
	for _, df := range ep.dq {
		PutBuf(df.f.Data)
	}
	ep.dq = nil
	ep.mu.Unlock()
	select {
	case ep.delayWake <- struct{}{}:
	default:
	}
	return ep.inner.Close()
}

// DropConn forwards to the inner endpoint's connection dropper, when it has
// one, so chaos scenarios can compose an injected cut with a real
// socket-level loss.
func (ep *faultyEndpoint) DropConn(peer int) bool {
	if cd, ok := ep.inner.(ConnDropper); ok {
		return cd.DropConn(peer)
	}
	return false
}

// Send fails on a cut channel exactly like a transport whose connection to
// the peer is down.
func (ep *faultyEndpoint) Send(to int, data []byte) error {
	ep.mu.Lock()
	isCut := to >= 0 && to < len(ep.chans) && ep.chans[to].cut
	ep.mu.Unlock()
	if isCut {
		return &PeerError{Peer: to, Err: errInjected{peer: to}, Transient: true}
	}
	return ep.inner.Send(to, data)
}

// SetSink implements Endpoint: the consumer's sink receives the filtered
// stream (the inner endpoint already delivers into the wrapper's filter).
func (ep *faultyEndpoint) SetSink(s Sink) {
	ep.mu.Lock()
	ep.sink = s
	ep.mu.Unlock()
}

// setCut flips one direction of an injected fault and synthesizes the
// matching lifecycle event for the consumer's sink. Cutting a channel also
// kills its frames still queued behind an injected delay: they were in
// flight on the wire the cut severed, and a later heal must not resurrect
// them.
func (ep *faultyEndpoint) setCut(peer int, cut bool) {
	ep.mu.Lock()
	changed := ep.chans[peer].cut != cut
	ep.chans[peer].cut = cut
	if cut && ep.chans[peer].pending > 0 {
		kept := ep.dq[:0]
		for _, df := range ep.dq {
			if df.f.From == peer {
				PutBuf(df.f.Data)
				ep.chans[peer].pending--
				continue
			}
			kept = append(kept, df)
		}
		ep.dq = kept
		heap.Init(&ep.dq)
	}
	sink := ep.sink
	ep.mu.Unlock()
	if !changed || sink == nil {
		return
	}
	if cut {
		sink.PeerDown(peer, &PeerError{Peer: peer, Err: errInjected{peer: peer}, Transient: true})
		return
	}
	if rs, ok := sink.(RecoverySink); ok {
		rs.PeerUp(peer)
	}
}

// setDelay configures one inbound channel's delivery latency.
func (ep *faultyEndpoint) setDelay(peer int, d, jitter time.Duration) {
	if d < 0 {
		d = 0
	}
	if jitter < 0 {
		jitter = 0
	}
	ep.mu.Lock()
	ep.chans[peer].delay = d
	ep.chans[peer].jitter = jitter
	ep.mu.Unlock()
}

// clearDelays removes every inbound channel's delay.
func (ep *faultyEndpoint) clearDelays() {
	ep.mu.Lock()
	for i := range ep.chans {
		ep.chans[i].delay, ep.chans[i].jitter = 0, 0
	}
	ep.mu.Unlock()
}

// delayedFrame is one frame waiting out its injected latency.
type delayedFrame struct {
	f       Frame
	release time.Time
	seq     uint64 // insertion order; ties release in arrival order
}

// delayHeap is a min-heap of delayed frames by (release, seq).
type delayHeap []*delayedFrame

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].release.Equal(h[j].release) {
		return h[i].release.Before(h[j].release)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(*delayedFrame)) }
func (h *delayHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// enqueueDelayedLocked queues a frame for delayed delivery and makes sure a
// drainer is running. Caller holds ep.mu.
func (ep *faultyEndpoint) enqueueDelayedLocked(f Frame, release time.Time) {
	ep.dqSeq++
	heap.Push(&ep.dq, &delayedFrame{f: f, release: release, seq: ep.dqSeq})
	if !ep.delayRunning {
		ep.delayRunning = true
		go ep.drainDelayed()
	} else {
		select {
		case ep.delayWake <- struct{}{}:
		default:
		}
	}
}

// drainDelayed releases queued frames in release-time order. It exits as
// soon as the queue empties (a new frame restarts it) or the endpoint
// closes, so chaos never leaks a goroutine past its faults.
func (ep *faultyEndpoint) drainDelayed() {
	for {
		ep.mu.Lock()
		if ep.delayClosed || len(ep.dq) == 0 {
			ep.delayRunning = false
			ep.mu.Unlock()
			return
		}
		now := time.Now()
		if wait := ep.dq[0].release.Sub(now); wait > 0 {
			ep.mu.Unlock()
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ep.delayWake:
				t.Stop()
			}
			continue
		}
		df := heap.Pop(&ep.dq).(*delayedFrame)
		from := df.f.From
		ep.chans[from].pending--
		isCut := ep.chans[from].cut
		sink := ep.sink
		ep.mu.Unlock()
		if isCut || sink == nil {
			// The channel was cut while the frame waited: it dies in flight,
			// like bytes on a severed wire.
			PutBuf(df.f.Data)
			continue
		}
		sink.Deliver(df.f)
	}
}

// filterSink sits between the inner endpoint's delivery context and the
// consumer's sink, applying the injected fault state: cut channels blackhole
// traffic, delayed channels route it through the release queue.
type filterSink struct{ ep *faultyEndpoint }

func (fs *filterSink) Deliver(f Frame) {
	ep := fs.ep
	ep.mu.Lock()
	if f.From < 0 || f.From >= len(ep.chans) {
		sink := ep.sink
		ep.mu.Unlock()
		if sink == nil {
			PutBuf(f.Data)
			return
		}
		sink.Deliver(f)
		return
	}
	ch := &ep.chans[f.From]
	if ch.cut {
		ep.mu.Unlock()
		PutBuf(f.Data)
		return
	}
	if !ch.delayed() {
		sink := ep.sink
		ep.mu.Unlock()
		if sink == nil {
			PutBuf(f.Data)
			return
		}
		sink.Deliver(f)
		return
	}
	if ep.delayClosed {
		ep.mu.Unlock()
		PutBuf(f.Data)
		return
	}
	// The frame is due one delay (plus jitter) after it arrived, but never
	// before the channel's previous frame: FIFO without serializing a burst.
	rel := time.Now().Add(ch.delay)
	if ch.jitter > 0 {
		rel = rel.Add(time.Duration(ep.jitter.Int63n(int64(ch.jitter) + 1)))
	}
	if rel.Before(ch.lastRelease) {
		rel = ch.lastRelease
	}
	ch.lastRelease = rel
	ch.pending++
	ep.enqueueDelayedLocked(f, rel)
	ep.mu.Unlock()
}

func (fs *filterSink) PeerDown(peer int, err error) {
	fs.ep.mu.Lock()
	sink := fs.ep.sink
	fs.ep.mu.Unlock()
	if sink != nil {
		sink.PeerDown(peer, err)
	}
}

// PeerUp forwards the inner transport's recovery events (a TCP reconnect
// under an injected cut still heals the real channel; the cut keeps
// filtering traffic until HealPair).
func (fs *filterSink) PeerUp(peer int) {
	fs.ep.mu.Lock()
	sink := fs.ep.sink
	fs.ep.mu.Unlock()
	if rs, ok := sink.(RecoverySink); ok {
		rs.PeerUp(peer)
	}
}
