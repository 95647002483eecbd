package transport

import (
	"fmt"
	"sync/atomic"
)

// busEndpoint is the in-process transport: frames move between endpoints as
// slice references pushed onto the receiver's queue. It is the fast path for
// tests and benchmarks, and the baseline the TCP transport is measured
// against — the bytes it accounts are the same encoded frames TCP would
// carry, minus the length prefix.
type busEndpoint struct {
	id    int
	n     int
	peers []*busEndpoint

	recv *queue
	// sink, when set (atomic.Value of Sink), receives this endpoint's
	// inbound frames synchronously on the sender's goroutine instead of
	// through the recv queue — the bus's whole transmission cost collapses
	// to one function call, with no dispatcher goroutine to wake.
	sink   atomic.Value
	closed atomic.Bool

	framesSent atomic.Int64
	bytesSent  atomic.Int64
	framesRecv atomic.Int64
	bytesRecv  atomic.Int64
}

// SetSink implements Endpoint.
func (ep *busEndpoint) SetSink(s Sink) { ep.sink.Store(&s) }

// NewBus returns n connected in-process endpoints, endpoint i for
// processor i.
func NewBus(n int) []Endpoint {
	eps := make([]*busEndpoint, n)
	for i := range eps {
		eps[i] = &busEndpoint{id: i, n: n, peers: eps, recv: newQueue()}
	}
	out := make([]Endpoint, n)
	for i, ep := range eps {
		out[i] = ep
	}
	return out
}

func (ep *busEndpoint) NodeID() int { return ep.id }
func (ep *busEndpoint) N() int      { return ep.n }

// Retains implements Endpoint: the bus hands the receiver the very slice
// the sender passed in, so senders must not reuse it.
func (ep *busEndpoint) Retains() bool { return true }

func (ep *busEndpoint) Send(to int, data []byte) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= ep.n || to == ep.id {
		return fmt.Errorf("transport: bad destination %d from node %d", to, ep.id)
	}
	peer := ep.peers[to]
	if peer.closed.Load() {
		return &PeerError{Peer: to, Err: ErrClosed}
	}
	ep.framesSent.Add(1)
	ep.bytesSent.Add(int64(len(data)))
	peer.framesRecv.Add(1)
	peer.bytesRecv.Add(int64(len(data)))
	if s := peer.sink.Load(); s != nil {
		(*s.(*Sink)).Deliver(Frame{From: ep.id, Data: data})
		return nil
	}
	peer.recv.push(Frame{From: ep.id, Data: data})
	return nil
}

func (ep *busEndpoint) Recv() (Frame, error) {
	return ep.recv.pop()
}

func (ep *busEndpoint) Close() error {
	if ep.closed.CompareAndSwap(false, true) {
		ep.recv.close()
	}
	return nil
}

func (ep *busEndpoint) Stats() Stats {
	return Stats{
		FramesSent: ep.framesSent.Load(),
		BytesSent:  ep.bytesSent.Load(),
		FramesRecv: ep.framesRecv.Load(),
		BytesRecv:  ep.bytesRecv.Load(),
	}
}

// BusFactory creates in-process bus meshes.
type BusFactory struct{}

// Mesh implements Factory.
func (BusFactory) Mesh(n int) ([]Endpoint, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: mesh needs n >= 1, got %d", n)
	}
	return NewBus(n), nil
}

// Kind implements Factory.
func (BusFactory) Kind() string { return "bus" }
