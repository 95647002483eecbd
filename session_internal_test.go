package byzcons

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"byzcons/internal/transport"
)

// TestSessionDefaultDegradesAroundDisconnectedPeer: a networked session with
// default settings — no chaos schedule — treats a peer whose channels all
// went quiet as one of its t faults. At n=4, t=1, node 3 is cut off from
// every peer before the first flush; the other three nodes degrade around it,
// decide the proposal and attribute node 3, on the bus and over TCP. Node 3
// alone is reported down: it observed every peer down, but the one processor
// that explains all those channels is node 3 itself.
func TestSessionDefaultDegradesAroundDisconnectedPeer(t *testing.T) {
	t.Parallel()
	for name, inner := range map[string]transport.Factory{
		"bus": transport.BusFactory{},
		"tcp": transport.TCPFactory{},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			faulty := &transport.FaultyFactory{Inner: inner}
			reports := make(chan FlushReport, 1)
			d, err := open(SessionConfig{
				Config:      Config{N: 4, T: 1, Seed: 3},
				BatchValues: 4,
				Policy:      FlushPolicy{MaxValues: -1, MaxDelay: -1},
				OnFlush:     func(rep FlushReport) { reports <- rep },
			}, 1, faulty)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			faulty.IsolateNode(3)

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			val := bytes.Repeat([]byte{0xD3, 0x07}, 8)
			p, err := d.submit(ctx, 0, val)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Drain(ctx); err != nil {
				t.Fatalf("flush with one disconnected peer failed: %v", err)
			}
			rep := <-reports // the one cycle, reported before Drain returned
			dec := p.Wait(ctx)
			if dec.Err != nil || !bytes.Equal(dec.Value, val) {
				t.Fatalf("decision = %x (err %v), want the proposal %x", dec.Value, dec.Err, val)
			}
			if !slices.Equal(rep.DegradedPeers, []int{3}) {
				t.Errorf("DegradedPeers = %v, want [3]", rep.DegradedPeers)
			}
			if !slices.Equal(rep.PeersDown, []int{3}) {
				t.Errorf("PeersDown = %v, want [3]: only the isolated node is charged", rep.PeersDown)
			}
		})
	}
}
