package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func tcpPair(t *testing.T) []Endpoint {
	t.Helper()
	eps, err := NewTCPMesh(2, TCPOptions{SetupTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeEndpoints(eps) })
	return eps
}

// TestSendRoundTrip drives the batch writer across prefix lengths (1-, 2- and
// 3-byte uvarints, and the empty frame) and past the size that skips the
// batching yield, and checks the receiver decodes exactly the bytes sent.
func TestSendRoundTrip(t *testing.T) {
	t.Parallel()
	eps := tcpPair(t)

	sizes := []int{0, 1, 100, 127, 128, 4000, 70000}
	for _, size := range sizes {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		if err := eps[0].Send(1, payload); err != nil {
			t.Fatalf("Send(%d bytes): %v", size, err)
		}
		fr, err := eps[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if fr.From != 0 || !bytes.Equal(fr.Data, payload) {
			t.Fatalf("frame of %d bytes arrived corrupted (from=%d, %d bytes)", size, fr.From, len(fr.Data))
		}
	}
	if st := eps[0].Stats(); st.FramesSent != int64(len(sizes)) {
		t.Errorf("FramesSent = %d, want %d", st.FramesSent, len(sizes))
	}
}

// TestSendCopiesCallerBuffer pins the contract behind Retains() == false: one
// buffer, sent to every peer in turn and overwritten as soon as Send returns,
// arrives everywhere as it was when sent — Send returns before the socket
// write, so it must have copied.
func TestSendCopiesCallerBuffer(t *testing.T) {
	t.Parallel()
	const n = 4
	eps, err := NewTCPMesh(n, TCPOptions{SetupTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	if eps[0].Retains() {
		t.Fatal("TCP endpoint reports Retains() == true")
	}

	payload := []byte("broadcast template, one buffer for all peers")
	buf := append([]byte(nil), payload...)
	for j := 1; j < n; j++ {
		if err := eps[0].Send(j, buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = byte(j)
		}
		copy(buf, payload)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	for j := 1; j < n; j++ {
		fr, err := eps[j].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data, payload) {
			t.Fatalf("peer %d received a frame the caller's later writes reached: %q", j, fr.Data)
		}
	}
}

// TestSendConcurrentSendersKeepOrder hammers one peer pair from many sender
// goroutines. Frames coalesce into far fewer socket writes than frames;
// correctness is that batching never tears, drops, duplicates or reorders one
// sender's frames, and that every accepted frame is counted exactly once.
func TestSendConcurrentSendersKeepOrder(t *testing.T) {
	t.Parallel()
	eps := tcpPair(t)

	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				if err := eps[0].Send(1, []byte(fmt.Sprintf("%d %d", s, k))); err != nil {
					t.Errorf("sender %d frame %d: %v", s, k, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if st := eps[0].Stats(); st.FramesSent != senders*perSender {
		t.Errorf("FramesSent = %d with every Send returned, want exactly %d", st.FramesSent, senders*perSender)
	}

	next := make([]int, senders)
	for i := 0; i < senders*perSender; i++ {
		fr, err := eps[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		var s, k int
		if _, err := fmt.Sscanf(string(fr.Data), "%d %d", &s, &k); err != nil || s < 0 || s >= senders {
			t.Fatalf("torn frame %q", fr.Data)
		}
		if k != next[s] {
			t.Fatalf("sender %d: frame %d arrived where %d was due", s, k, next[s])
		}
		next[s]++
	}
	st := eps[0].Stats()
	if st.Writes < 1 || st.Writes > st.FramesSent {
		t.Errorf("Writes = %d for %d frames", st.Writes, st.FramesSent)
	}
	if st.BytesSent != eps[1].Stats().BytesRecv {
		t.Errorf("BytesSent = %d, receiver counted %d", st.BytesSent, eps[1].Stats().BytesRecv)
	}
}

// TestTCPDropConnMidBatch severs a connection while senders keep it busy:
// the writer and the reader of the lost connection both notice, and the loss
// must still be attributed once — one flap and one PeerDown per end — then the
// pair reconnects and a frame sent afterwards arrives whole, with nothing of
// the interrupted batch in front of it.
func TestTCPDropConnMidBatch(t *testing.T) {
	t.Parallel()
	eps, err := NewTCPMesh(2, TCPOptions{
		SetupTimeout: 10 * time.Second,
		Retry:        RetryPolicy{MinBackoff: 20 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, MaxAttempts: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sinks := []*recSink{{}, {}}
	for i, ep := range eps {
		ep.SetSink(sinks[i])
	}

	// Each sender queues a few frames back to back, then pauses, until its
	// first failed Send or the end of the test. While the channel is down
	// Send fails synchronously with the recorded transient loss.
	const traffic, final = "mid-batch traffic", "after the drop"
	var wg sync.WaitGroup
	stop := make(chan struct{})
	sendErrs := make(chan error, 4)
	for s := 0; s < cap(sendErrs); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for k := 0; k < 8; k++ {
					if err := eps[0].Send(1, []byte(traffic)); err != nil {
						sendErrs <- err
						return
					}
				}
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
		}()
	}
	waitFor(t, "traffic to flow", func() bool { f, _, _ := sinks[1].counts(); return f > 100 })
	if !eps[0].(ConnDropper).DropConn(1) {
		t.Fatal("DropConn found no live connection")
	}
	waitFor(t, "both ends to heal", func() bool {
		_, _, u0 := sinks[0].counts()
		_, _, u1 := sinks[1].counts()
		return u0 >= 1 && u1 >= 1
	})
	close(stop)
	wg.Wait()
	close(sendErrs)
	failed := 0
	for err := range sendErrs {
		failed++
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Peer != 1 || !pe.Transient {
			t.Errorf("Send during the outage = %v, want a transient PeerError for peer 1", err)
		}
	}
	if failed == 0 {
		t.Error("no Send failed while the channel was down")
	}

	if err := eps[0].Send(1, []byte(final)); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	lastFrame := func() string {
		sinks[1].mu.Lock()
		defer sinks[1].mu.Unlock()
		return sinks[1].frames[len(sinks[1].frames)-1]
	}
	waitFor(t, "post-heal delivery", func() bool { return lastFrame() == final })
	sinks[1].mu.Lock()
	for _, f := range sinks[1].frames[:len(sinks[1].frames)-1] {
		if f != traffic {
			t.Errorf("torn or misplaced frame %q", f)
			break
		}
	}
	sinks[1].mu.Unlock()

	for i, s := range sinks {
		if _, d, u := s.counts(); d != 1 || u != 1 {
			t.Errorf("end %d saw %d PeerDown and %d PeerUp events, want 1 and 1", i, d, u)
		}
		if st := eps[i].Stats(); st.PeerFlaps != 1 || st.Reconnects != 1 {
			t.Errorf("end %d: PeerFlaps = %d, Reconnects = %d, want 1 and 1", i, st.PeerFlaps, st.Reconnects)
		}
	}
}

// TestTCPNonReadingPeerDoesNotStallOthers is the robustness half of the batch
// writer: node 2 never reads, so its socket fills and its writer blocks, and
// node 0 must keep completing send/receive rounds with node 1 regardless.
// Node 2's backlog is bounded: past 2 x MaxFrame the connection is dropped and
// node 0 hears of it like of any other loss.
func TestTCPNonReadingPeerDoesNotStallOthers(t *testing.T) {
	t.Parallel()
	eps, err := NewTCPMesh(3, TCPOptions{
		MaxFrame:     64 << 10,
		SetupTimeout: 10 * time.Second,
		// No redial lands inside the test: node 2 dials node 0, 30s later.
		Retry: RetryPolicy{MinBackoff: 30 * time.Second, MaxBackoff: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sink := &recSink{}
	eps[0].SetSink(sink)
	// Node 1 echoes every frame; node 2's connection reader is stopped for
	// good by a sink that never returns.
	go func() {
		for {
			fr, err := eps[1].Recv()
			if err != nil {
				return
			}
			if fr.From == 0 && eps[1].Send(0, fr.Data) != nil {
				return
			}
		}
	}()
	block := make(chan struct{})
	defer close(block)
	eps[2].SetSink(blockingSink{block})

	frame := make([]byte, 32<<10)
	rounds, down := 0, false
	deadline := time.Now().Add(30 * time.Second)
	for !down || rounds < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("after %d rounds with node 1, node 2 reported down: %v", rounds, down)
		}
		if err := eps[0].Send(1, frame[:16]); err != nil {
			t.Fatalf("round %d: send to node 1: %v", rounds, err)
		}
		if !down {
			if err := eps[0].Send(2, frame); err != nil {
				var pe *PeerError
				if !errors.As(err, &pe) || pe.Peer != 2 {
					t.Fatalf("send to node 2 = %v, want a PeerError for peer 2", err)
				}
				down = true
			}
		}
		rounds++
		waitFor(t, "node 1's echo", func() bool { f, _, _ := sink.counts(); return f >= rounds })
	}
	waitFor(t, "node 2 reported down at node 0", func() bool { _, d, _ := sink.counts(); return d == 1 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var pe *PeerError
	if !errors.As(sink.downs[0], &pe) || pe.Peer != 2 {
		t.Errorf("PeerDown = %v, want peer 2", sink.downs[0])
	}
}

// blockingSink models a peer that stopped reading: its first delivery never
// returns, so the connection's reader stops draining the socket.
type blockingSink struct{ release <-chan struct{} }

func (s blockingSink) Deliver(Frame)       { <-s.release }
func (s blockingSink) PeerDown(int, error) {}

// TestTCPCloseDrainsAcceptedFrames pins Close's order: frames Send accepted
// reach the peer before the sockets close, however many are still in the
// batch buffers when Close is called.
func TestTCPCloseDrainsAcceptedFrames(t *testing.T) {
	t.Parallel()
	eps := tcpPair(t)
	const frames = 500
	for k := 0; k < frames; k++ {
		if err := eps[0].Send(1, []byte{byte(k), byte(k >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	eps[0].Close()
	if err := eps[0].Send(1, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	for k := 0; k < frames; k++ {
		fr, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("frame %d of %d accepted before Close: %v", k, frames, err)
		}
		if got := int(fr.Data[0]) | int(fr.Data[1])<<8; got != k {
			t.Fatalf("frame %d arrived where %d was due", got, k)
		}
	}
}

// TestTCPCloseBoundedByNonReadingPeer: a peer that stopped reading must not
// hang Close — the drain gives up at its write deadline.
func TestTCPCloseBoundedByNonReadingPeer(t *testing.T) {
	t.Parallel()
	eps := tcpPair(t)
	block := make(chan struct{})
	defer close(block)
	eps[1].SetSink(blockingSink{block})
	// Fill the socket buffers until the backlog stays put: the writer is
	// blocked mid-Write with frames queued behind it.
	frame := make([]byte, 256<<10)
	for k := 0; k < 64; k++ {
		if err := eps[0].Send(1, frame); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	done := make(chan struct{})
	go func() { eps[0].Close(); close(done) }()
	select {
	case <-done:
		if d := time.Since(start); d > closeDrainTimeout+2*time.Second {
			t.Errorf("Close took %v behind a non-reading peer", d)
		}
	case <-time.After(closeDrainTimeout + 10*time.Second):
		t.Fatal("Close hangs behind a non-reading peer")
	}
}
