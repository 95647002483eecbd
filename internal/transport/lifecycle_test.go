package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// recSink records everything a sink observes: delivered payloads and peer
// lifecycle events.
type recSink struct {
	mu     sync.Mutex
	frames []string
	downs  []error
	ups    []int
}

func (s *recSink) Deliver(f Frame) {
	s.mu.Lock()
	s.frames = append(s.frames, string(f.Data))
	s.mu.Unlock()
	PutBuf(f.Data)
}

func (s *recSink) PeerDown(peer int, err error) {
	s.mu.Lock()
	s.downs = append(s.downs, fmt.Errorf("peer %d: %w", peer, err))
	s.mu.Unlock()
}

func (s *recSink) PeerUp(peer int) {
	s.mu.Lock()
	s.ups = append(s.ups, peer)
	s.mu.Unlock()
}

func (s *recSink) counts() (frames, downs, ups int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames), len(s.downs), len(s.ups)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPReconnectHealsChannel exercises the transport-level reconnect path
// in isolation: a dropped connection surfaces as a transient PeerDown at both
// ends, the dialing side re-dials and re-handshakes, both ends announce the
// recovery via PeerUp, and traffic flows again — with the reconnect and flap
// counters accounting for exactly one healed channel.
func TestTCPReconnectHealsChannel(t *testing.T) {
	t.Parallel()
	eps, err := NewTCPMesh(2, TCPOptions{
		SetupTimeout: 10 * time.Second,
		Retry:        RetryPolicy{MinBackoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, MaxAttempts: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sinks := []*recSink{{}, {}}
	for i, ep := range eps {
		ep.SetSink(sinks[i])
	}

	if err := eps[0].Send(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-drop delivery", func() bool { f, _, _ := sinks[1].counts(); return f == 1 })

	if !eps[1].(ConnDropper).DropConn(0) {
		t.Fatal("DropConn found no live connection")
	}
	waitFor(t, "both ends to notice the loss", func() bool {
		_, d0, _ := sinks[0].counts()
		_, d1, _ := sinks[1].counts()
		return d0 >= 1 && d1 >= 1
	})
	sinks[0].mu.Lock()
	firstLoss := sinks[0].downs[0]
	sinks[0].mu.Unlock()
	if !Transient(firstLoss) {
		t.Errorf("dropped connection reported as non-transient: %v", firstLoss)
	}

	// The higher id is the pair's dialer: it re-dials, both ends install the
	// fresh connection and announce the recovery.
	waitFor(t, "both ends to heal", func() bool {
		_, _, u0 := sinks[0].counts()
		_, _, u1 := sinks[1].counts()
		return u0 >= 1 && u1 >= 1
	})
	if err := eps[0].Send(1, []byte("after-a")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if err := eps[1].Send(0, []byte("after-b")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	waitFor(t, "post-heal deliveries", func() bool {
		f0, _, _ := sinks[0].counts()
		f1, _, _ := sinks[1].counts()
		return f0 >= 1 && f1 >= 2
	})

	var st Stats
	for _, ep := range eps {
		st.Add(ep.Stats())
	}
	if st.Reconnects != 2 {
		t.Errorf("Reconnects = %d, want 2 (one install per end)", st.Reconnects)
	}
	if st.PeerFlaps != 2 {
		t.Errorf("PeerFlaps = %d, want 2 (one transient loss per end)", st.PeerFlaps)
	}
	if st.Conns != 2 {
		t.Errorf("Conns = %d, want the flat dial-time count 2", st.Conns)
	}
}

// TestTCPCleanCloseNoPeerDown pins the Close race: an endpoint tearing itself
// down severs its own connections, and none of that may surface as peer
// failures at its own sink — a deliberate local Close is not a peer loss.
func TestTCPCleanCloseNoPeerDown(t *testing.T) {
	t.Parallel()
	eps, err := NewTCPMesh(2, TCPOptions{SetupTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sinks := []*recSink{{}, {}}
	for i, ep := range eps {
		ep.SetSink(sinks[i])
	}
	if err := eps[0].Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { f, _, _ := sinks[1].counts(); return f == 1 })

	eps[0].Close()
	eps[1].Close()
	if _, d0, _ := sinks[0].counts(); d0 != 0 {
		sinks[0].mu.Lock()
		defer sinks[0].mu.Unlock()
		t.Errorf("clean Close surfaced %d peer failures at the closing endpoint's own sink: %v", d0, sinks[0].downs)
	}
}

// TestFaultyFactoryCutAndHeal covers the fault-injection wrapper: a cut pair
// fails sends with a transient PeerError and synthesizes PeerDown at both
// ends; the heal synthesizes PeerUp and restores traffic.
func TestFaultyFactoryCutAndHeal(t *testing.T) {
	t.Parallel()
	ff := &FaultyFactory{Inner: BusFactory{}}
	eps, err := ff.Mesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sinks := []*recSink{{}, {}}
	for i, ep := range eps {
		ep.SetSink(sinks[i])
	}

	if err := eps[0].Send(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-cut delivery", func() bool { f, _, _ := sinks[1].counts(); return f == 1 })

	ff.CutPair(0, 1)
	err = eps[0].Send(1, []byte("lost"))
	if err == nil || !Transient(err) {
		t.Fatalf("send over a cut channel = %v, want a transient PeerError", err)
	}
	for i, s := range sinks {
		_, d, _ := s.counts()
		if d != 1 {
			t.Errorf("sink %d saw %d PeerDown events after the cut, want 1", i, d)
		}
	}

	ff.HealPair(0, 1)
	for i, s := range sinks {
		_, _, u := s.counts()
		if u != 1 {
			t.Errorf("sink %d saw %d PeerUp events after the heal, want 1", i, u)
		}
	}
	if err := eps[0].Send(1, []byte("post")); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	waitFor(t, "post-heal delivery", func() bool { f, _, _ := sinks[1].counts(); return f == 2 })
}
