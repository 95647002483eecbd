package node

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"byzcons/internal/bsb"
	"byzcons/internal/consensus"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
)

// capturingFactory exposes the endpoints of the mesh it builds, so chaos
// tests can reach transport-level controls (ConnDropper) behind a cluster.
type capturingFactory struct {
	inner transport.Factory
	eps   []transport.Endpoint
}

func (f *capturingFactory) Mesh(n int) ([]transport.Endpoint, error) {
	eps, err := f.inner.Mesh(n)
	f.eps = eps
	return eps, err
}

func (f *capturingFactory) Kind() string { return f.inner.Kind() }

// fastRetry is a test-speed reconnect policy: prompt redials, a budget far
// beyond what a test outage needs.
func fastRetry() transport.RetryPolicy {
	return transport.RetryPolicy{
		MinBackoff:  2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		MaxAttempts: 500,
		MaxFlaps:    1000,
	}
}

// consensusBatch runs one single-instance consensus cycle over the given
// batch runner.
func consensusBatch(par consensus.Params, inputs [][]byte, L int, seed int64,
	run func(sim.BatchConfig, func(int, *sim.Proc) any) *sim.BatchResult) *sim.BatchResult {
	return run(sim.BatchConfig{N: par.N, Seed: seed, Instances: 1}, func(_ int, p *sim.Proc) any {
		return consensus.Run(p, par, inputs[p.ID], L)
	})
}

// requireCycleMatchesSim asserts a networked cycle reproduced the simulator
// bit for bit: decisions, generation counts, diagnosis graphs, metered
// traffic and round count.
func requireCycleMatchesSim(t *testing.T, label string, simRes, netRes *sim.BatchResult) {
	t.Helper()
	if simRes.Err != nil || netRes.Err != nil {
		t.Fatalf("%s: sim err %v, cluster err %v", label, simRes.Err, netRes.Err)
	}
	sv, nv := simRes.Instances[0].Values, netRes.Instances[0].Values
	for i := range sv {
		so := sv[i].(*consensus.Output)
		no := nv[i].(*consensus.Output)
		if !bytes.Equal(so.Value, no.Value) || so.Defaulted != no.Defaulted {
			t.Errorf("%s: node %d decided %x/%v, simulator %x/%v",
				label, i, no.Value, no.Defaulted, so.Value, so.Defaulted)
		}
		if so.Generations != no.Generations || so.DiagnosisRuns != no.DiagnosisRuns {
			t.Errorf("%s: node %d gens/diags %d/%d, simulator %d/%d",
				label, i, no.Generations, no.DiagnosisRuns, so.Generations, so.DiagnosisRuns)
		}
		if !so.Graph.Equal(no.Graph) {
			t.Errorf("%s: node %d diagnosis graphs diverge", label, i)
		}
	}
	if simRes.Bits != netRes.Bits {
		t.Errorf("%s: metered bits diverge: cluster %d, sim %d", label, netRes.Bits, simRes.Bits)
	}
	if simRes.Rounds != netRes.Rounds {
		t.Errorf("%s: rounds diverge: cluster %d, sim %d", label, netRes.Rounds, simRes.Rounds)
	}
}

// waitRoutersHealthy blocks until no router holds a standing peer failure —
// the cluster-visible signal that every transient loss has been cleared by
// the transport's recovery events.
func waitRoutersHealthy(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c.mu.Lock()
		routers := c.routers
		c.mu.Unlock()
		healthy := true
		for _, r := range routers {
			r.mu.Lock()
			for i := range r.peers {
				if r.peers[i].err != nil {
					healthy = false
				}
			}
			r.mu.Unlock()
		}
		if healthy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("routers still hold standing peer failures")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestClusterEpochScopedFailureRecovery is the regression test for the
// failure-latch bug: a peer-channel failure must be scoped to the cycles that
// observe it, not replayed into every later epoch. Cycle 1 runs with the
// 1<->3 channel cut and fails, naming both ends in its membership report;
// after the heal, cycles 2 and 3 start with full membership and reproduce the
// simulator bit for bit.
func TestClusterEpochScopedFailureRecovery(t *testing.T) {
	t.Parallel()
	const n, tFaults, L = 4, 1, 256
	par := consensus.Params{N: n, T: tFaults, BSB: bsb.EIG}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{0xA5}, L/8)
	}
	ff := &transport.FaultyFactory{Inner: transport.BusFactory{}}
	c := NewCluster(ff)
	defer c.Close()
	if err := c.Connect(n); err != nil {
		t.Fatal(err)
	}

	ff.CutPair(1, 3)
	res := consensusBatch(par, inputs, L, 11, c.RunBatch)
	if res.Err == nil {
		t.Fatal("cycle with a cut peer channel decided")
	}
	if !slices.Contains(res.PeersDown, 1) || !slices.Contains(res.PeersDown, 3) {
		t.Fatalf("PeersDown = %v, want both ends of the cut pair (1 and 3)", res.PeersDown)
	}

	ff.HealPair(1, 3)
	for r := 0; r < 2; r++ {
		seed := int64(20 + r)
		simRes := consensusBatch(par, inputs, L, seed, sim.RunBatch)
		netRes := consensusBatch(par, inputs, L, seed, c.RunBatch)
		if netRes.Err != nil {
			t.Fatalf("cycle %d after heal: %v", r+2, netRes.Err)
		}
		if len(netRes.PeersDown) != 0 {
			t.Errorf("cycle %d after heal reports PeersDown = %v, want full membership", r+2, netRes.PeersDown)
		}
		requireCycleMatchesSim(t, "post-heal cycle", simRes, netRes)
	}
	if dials := c.MeshDials(); dials != 1 {
		t.Errorf("recovery re-dialed the mesh (%d dials)", dials)
	}
}

// TestClusterPeerReconnectResync is the end-to-end chaos check over real
// sockets: mid-session, every TCP connection of one node is killed; the
// transport re-dials and re-handshakes, the rejoined peer participates from
// the next epoch, and subsequent cycles are bit-identical to the simulator —
// all without re-dialing the mesh or growing the connection counter.
func TestClusterPeerReconnectResync(t *testing.T) {
	t.Parallel()
	const n, L = 4, 256
	par := consensus.Params{N: n, T: 1, BSB: bsb.EIG}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{0x3C}, L/8)
	}
	cf := &capturingFactory{inner: transport.TCPFactory{Options: transport.TCPOptions{
		SetupTimeout: 10 * time.Second,
		Retry:        fastRetry(),
	}}}
	c := NewCluster(cf)
	defer c.Close()
	if err := c.Connect(n); err != nil {
		t.Fatal(err)
	}

	simRes := consensusBatch(par, inputs, L, 31, sim.RunBatch)
	netRes := consensusBatch(par, inputs, L, 31, c.RunBatch)
	requireCycleMatchesSim(t, "pre-drop cycle", simRes, netRes)

	// Kill every connection node 2 participates in — the mid-session analogue
	// of that node's process losing and regaining its network.
	dropper := cf.eps[2].(transport.ConnDropper)
	dropped := 0
	for j := 0; j < n; j++ {
		if j != 2 && dropper.DropConn(j) {
			dropped++
		}
	}
	if dropped != n-1 {
		t.Fatalf("dropped %d of node 2's connections, want %d", dropped, n-1)
	}

	// Each healed connection installs at both of its ends.
	wantReconnects := int64(2 * dropped)
	deadline := time.Now().Add(15 * time.Second)
	for {
		var got int64
		for _, ep := range cf.eps {
			got += ep.Stats().Reconnects
		}
		if got >= wantReconnects {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh healed %d connection ends, want %d", got, wantReconnects)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitRoutersHealthy(t, c)

	for r := 0; r < 2; r++ {
		seed := int64(40 + r)
		simRes := consensusBatch(par, inputs, L, seed, sim.RunBatch)
		netRes := consensusBatch(par, inputs, L, seed, c.RunBatch)
		if netRes.Err != nil {
			t.Fatalf("cycle %d after reconnect: %v", r+2, netRes.Err)
		}
		if len(netRes.PeersDown) != 0 {
			t.Errorf("cycle %d after reconnect reports PeersDown = %v, want full membership", r+2, netRes.PeersDown)
		}
		requireCycleMatchesSim(t, "post-reconnect cycle", simRes, netRes)
	}

	st := c.WireStats()
	if st.Reconnects != wantReconnects {
		t.Errorf("Reconnects = %d, want %d", st.Reconnects, wantReconnects)
	}
	if st.PeerFlaps == 0 {
		t.Error("PeerFlaps = 0 after dropping live connections")
	}
	if st.Conns != int64(n*(n-1)) {
		t.Errorf("Conns = %d after reconnect, want the flat dial-time count %d", st.Conns, n*(n-1))
	}
	if dials := c.MeshDials(); dials != 1 {
		t.Errorf("reconnect re-dialed the mesh (%d dials)", dials)
	}
}

// TestClusterFaultInjectionPerCycle is the fault-injection smoke over TCP:
// between every pair of cycles a rotating peer pair flaps (cut and healed via
// the faulty-transport wrapper). Every cycle must still decide with full
// membership, bit-identical to the simulator — transient losses between
// epochs leave no trace in the cycles around them.
func TestClusterFaultInjectionPerCycle(t *testing.T) {
	t.Parallel()
	const n, L, cycles = 4, 256, 4
	par := consensus.Params{N: n, T: 1, BSB: bsb.EIG}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{0x71}, L/8)
	}
	ff := &transport.FaultyFactory{Inner: transport.TCPFactory{Options: transport.TCPOptions{
		SetupTimeout: 10 * time.Second,
		Retry:        fastRetry(),
	}}}
	c := NewCluster(ff)
	defer c.Close()
	if err := c.Connect(n); err != nil {
		t.Fatal(err)
	}

	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	for r := 0; r < cycles; r++ {
		seed := int64(50 + r)
		simRes := consensusBatch(par, inputs, L, seed, sim.RunBatch)
		netRes := consensusBatch(par, inputs, L, seed, c.RunBatch)
		if netRes.Err != nil {
			t.Fatalf("cycle %d: %v", r, netRes.Err)
		}
		if len(netRes.PeersDown) != 0 {
			t.Errorf("cycle %d reports PeersDown = %v, want full membership", r, netRes.PeersDown)
		}
		requireCycleMatchesSim(t, "fault-injection cycle", simRes, netRes)

		p := pairs[r%len(pairs)]
		ff.CutPair(p[0], p[1])
		ff.HealPair(p[0], p[1])
	}
	if dials := c.MeshDials(); dials != 1 {
		t.Errorf("flaps re-dialed the mesh (%d dials)", dials)
	}
}

// TestClusterStallDetectorIsolatesSilentPeer: a peer that goes silent while a
// round waits on its frame is isolated by the stall detector — attributed,
// once the park has lasted StallTimeout — and named in the cycle's
// membership report.
func TestClusterStallDetectorIsolatesSilentPeer(t *testing.T) {
	t.Parallel()
	c := NewCluster(transport.BusFactory{})
	defer c.Close()
	c.StallTimeout = 300 * time.Millisecond
	start := time.Now()
	res := c.RunBatch(sim.BatchConfig{N: 3, Seed: 1, Instances: 1}, func(_ int, p *sim.Proc) any {
		if p.ID == 2 {
			return "silent" // never joins the round: no frames, no progress
		}
		p.Exchange("r1", nil, nil)
		return "done"
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "stalled") {
		t.Fatalf("stall not detected: %v", res.Err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("stall detection took %v, want about the 300ms StallTimeout", elapsed)
	}
	if !slices.Contains(res.PeersDown, 2) {
		t.Errorf("PeersDown = %v, want the stalled node 2", res.PeersDown)
	}
}

// TestClusterCloseDoesNotRegisterPeerFailures pins the shutdown ordering:
// Close severs every connection, and none of that teardown may register as a
// peer failure — routers are closed before the endpoints, so a clean shutdown
// leaves every router's failure state empty.
func TestClusterCloseDoesNotRegisterPeerFailures(t *testing.T) {
	t.Parallel()
	for kind, f := range factories() {
		kind, f := kind, f
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			c := NewCluster(f)
			res := c.Run(sim.RunConfig{N: 3, Seed: 1}, gatherBody)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			c.mu.Lock()
			routers := c.routers
			c.mu.Unlock()
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			for i, r := range routers {
				r.mu.Lock()
				for peer := range r.peers {
					if err := r.peers[peer].err; err != nil {
						t.Errorf("router %d holds peer %d failure after clean Close: %v", i, peer, err)
					}
				}
				r.mu.Unlock()
			}
		})
	}
}
