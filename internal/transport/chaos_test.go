package transport

import (
	"strings"
	"testing"
	"time"
)

// TestFaultyFactoryPartition covers the node-set generalization of cut/heal:
// a partition severs exactly the cross-group channels (with lifecycle events
// at both ends), keeps intra-group traffic flowing, and HealAll restores the
// pristine mesh.
func TestFaultyFactoryPartition(t *testing.T) {
	t.Parallel()
	ff := &FaultyFactory{Inner: BusFactory{}}
	eps, err := ff.Mesh(4)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sinks := make([]*recSink, 4)
	for i, ep := range eps {
		sinks[i] = &recSink{}
		ep.SetSink(sinks[i])
	}

	// Nodes 2 and 3 are unlisted: they form the implicit remainder group.
	if err := ff.Partition([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := eps[0].Send(1, []byte("intra")); err != nil {
		t.Fatalf("intra-group send failed under partition: %v", err)
	}
	if err := eps[2].Send(3, []byte("intra")); err != nil {
		t.Fatalf("remainder-group send failed under partition: %v", err)
	}
	if err := eps[0].Send(2, []byte("cross")); err == nil || !Transient(err) {
		t.Fatalf("cross-group send = %v, want a transient PeerError", err)
	}
	waitFor(t, "intra-group deliveries", func() bool {
		f1, _, _ := sinks[1].counts()
		f3, _, _ := sinks[3].counts()
		return f1 == 1 && f3 == 1
	})
	// Each node lost exactly the 2 channels into the other group.
	for i, s := range sinks {
		if _, d, _ := s.counts(); d != 2 {
			t.Errorf("sink %d saw %d PeerDown events, want 2", i, d)
		}
	}

	ff.HealAll()
	for i, s := range sinks {
		if _, _, u := s.counts(); u != 2 {
			t.Errorf("sink %d saw %d PeerUp events after HealAll, want 2", i, u)
		}
	}
	if err := eps[0].Send(2, []byte("healed")); err != nil {
		t.Fatalf("cross-group send after HealAll: %v", err)
	}
	waitFor(t, "post-heal delivery", func() bool { f, _, _ := sinks[2].counts(); return f == 1 })

	if err := ff.Partition([]int{0, 1}, []int{1, 2}); err == nil {
		t.Error("Partition with a node in two groups succeeded, want an error")
	}
}

// TestFaultyFactoryIsolateNode covers the crash image: an isolated node's
// sends fail, nothing reaches it, every peer observes the loss, and HealNode
// restores it with recovery events at both ends.
func TestFaultyFactoryIsolateNode(t *testing.T) {
	t.Parallel()
	ff := &FaultyFactory{Inner: BusFactory{}}
	eps, err := ff.Mesh(3)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sinks := make([]*recSink, 3)
	for i, ep := range eps {
		sinks[i] = &recSink{}
		ep.SetSink(sinks[i])
	}

	ff.IsolateNode(2)
	if err := eps[2].Send(0, []byte("x")); err == nil || !Transient(err) {
		t.Fatalf("send from isolated node = %v, want a transient PeerError", err)
	}
	if err := eps[0].Send(1, []byte("alive")); err != nil {
		t.Fatalf("send between live nodes under isolation: %v", err)
	}
	waitFor(t, "live-pair delivery", func() bool { f, _, _ := sinks[1].counts(); return f == 1 })
	if _, d, _ := sinks[2].counts(); d != 2 {
		t.Errorf("isolated node saw %d PeerDown events, want 2 (every channel)", d)
	}

	ff.HealNode(2)
	waitFor(t, "recovery events", func() bool {
		_, _, u0 := sinks[0].counts()
		_, _, u2 := sinks[2].counts()
		return u0 == 1 && u2 == 2
	})
	if err := eps[2].Send(0, []byte("back")); err != nil {
		t.Fatalf("send after HealNode: %v", err)
	}
	waitFor(t, "post-heal delivery", func() bool { f, _, _ := sinks[0].counts(); return f == 1 })
}

// TestFaultyFactoryDelayPreservesChannelFIFO pins the delay layer's model
// contract: injected latency (with jitter) postpones delivery but never
// reorders one channel against itself — per-peer FIFO is what the
// round synchronizer's arrival-ordinal identity depends on.
func TestFaultyFactoryDelayPreservesChannelFIFO(t *testing.T) {
	t.Parallel()
	ff := &FaultyFactory{Inner: BusFactory{}, Seed: 42}
	eps, err := ff.Mesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sink := &recSink{}
	eps[1].SetSink(sink)

	ff.DelayPair(0, 1, 3*time.Millisecond, 2*time.Millisecond)
	start := time.Now()
	const frames = 16
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, []byte{'a' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delayed deliveries", func() bool { f, _, _ := sink.counts(); return f == frames })
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("all frames delivered in %v, want at least the 3ms base delay", elapsed)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, data := range sink.frames {
		if want := string([]byte{'a' + byte(i)}); data != want {
			t.Fatalf("frame %d = %q, want %q: injected delay reordered a channel against itself", i, data, want)
		}
	}
}

// TestFaultyFactoryDelayIsLatency pins what an injected delay models: a
// latency, not a per-channel serializer. A burst sent at once arrives, in
// order, about one delay later — not one delay per frame (20 frames at 25ms
// would take 500ms if each frame waited behind the previous one's delay).
func TestFaultyFactoryDelayIsLatency(t *testing.T) {
	t.Parallel()
	ff := &FaultyFactory{Inner: BusFactory{}}
	eps, err := ff.Mesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sink := &recSink{}
	eps[1].SetSink(sink)

	const delay, frames = 25 * time.Millisecond, 20
	ff.DelayPair(0, 1, delay, 0)
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := eps[0].Send(1, []byte{'a' + byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delayed burst", func() bool { f, _, _ := sink.counts(); return f == frames })
	elapsed := time.Since(start)
	if elapsed < delay {
		t.Errorf("burst delivered in %v, want at least the %v delay", elapsed, delay)
	}
	if elapsed > 10*delay {
		t.Errorf("burst of %d frames delivered in %v, want about one %v delay: the delay serialized the channel", frames, elapsed, delay)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, data := range sink.frames {
		if want := string([]byte{'a' + byte(i)}); data != want {
			t.Fatalf("frame %d = %q, want %q: injected delay reordered a channel against itself", i, data, want)
		}
	}
}

// TestFaultyFactoryDelayedFrameDiesOnCut covers the interaction of the two
// fault layers: a frame queued behind an injected delay whose channel is cut
// before release dies in flight, like bytes on a severed wire.
func TestFaultyFactoryDelayedFrameDiesOnCut(t *testing.T) {
	t.Parallel()
	ff := &FaultyFactory{Inner: BusFactory{}}
	eps, err := ff.Mesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	sink := &recSink{}
	eps[1].SetSink(sink)

	ff.DelayPair(0, 1, 30*time.Millisecond, 0)
	if err := eps[0].Send(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	ff.CutPair(0, 1)
	ff.HealPair(0, 1)
	if err := eps[0].Send(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-heal frame", func() bool { f, _, _ := sink.counts(); return f >= 1 })
	time.Sleep(50 * time.Millisecond) // past the doomed frame's release
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, data := range sink.frames {
		if data == "doomed" {
			t.Fatal("frame queued behind a delay survived the cut of its channel")
		}
	}
}

// TestFaultyFactoryGuards covers the harness-bug guards: injection before
// Mesh, out-of-range node ids, and Mesh re-entry all fail with clear
// messages instead of the old nil-slice crash.
func TestFaultyFactoryGuards(t *testing.T) {
	t.Parallel()
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", what)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %v, want a message containing %q", what, r, want)
			}
		}()
		fn()
	}

	ff := &FaultyFactory{Inner: BusFactory{}}
	mustPanic("CutPair before Mesh", "before Mesh", func() { ff.CutPair(0, 1) })
	mustPanic("HealPair before Mesh", "before Mesh", func() { ff.HealPair(0, 1) })

	eps, err := ff.Mesh(2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEndpoints(eps)
	mustPanic("CutPair out of range", "out of range", func() { ff.CutPair(0, 7) })

	if _, err := ff.Mesh(2); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("Mesh re-entry = %v, want a called-twice error", err)
	}
}

// TestTCPCloseDuringBackoff pins the redial-cancellation path: an endpoint
// whose re-dial loop is deep inside a long backoff window (its peer is gone
// for good) must still Close promptly — the dial context and the stop channel
// interrupt the loop instead of waiting out the retry budget.
func TestTCPCloseDuringBackoff(t *testing.T) {
	t.Parallel()
	eps, err := NewTCPMesh(2, TCPOptions{
		SetupTimeout: 10 * time.Second,
		Retry:        RetryPolicy{MinBackoff: 30 * time.Second, MaxBackoff: 30 * time.Second, MaxAttempts: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	sinks := []*recSink{{}, {}}
	for i, ep := range eps {
		ep.SetSink(sinks[i])
	}

	// Kill the lower id for good: the higher id (the pair's dialer) enters
	// its re-dial loop and, with every attempt failing fast against a dead
	// listener, parks in the 30s backoff sleep.
	eps[0].Close()
	waitFor(t, "dialer to notice the loss", func() bool { _, d, _ := sinks[1].counts(); return d >= 1 })

	start := time.Now()
	eps[1].Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close took %v with a re-dial backoff in flight, want a prompt return", elapsed)
	}
}
