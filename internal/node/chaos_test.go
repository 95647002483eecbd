package node

import (
	"bytes"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"byzcons/internal/bsb"
	"byzcons/internal/consensus"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
)

// degradedBatch runs one single-instance consensus cycle with graceful
// degradation enabled at the model bound (up to par.T peers defaulted).
func degradedBatch(par consensus.Params, inputs [][]byte, L int, seed int64, c *Cluster) *sim.BatchResult {
	return c.RunBatch(sim.BatchConfig{N: par.N, Seed: seed, Instances: 1, DegradePeers: par.T},
		func(_ int, p *sim.Proc) any {
			return consensus.Run(p, par, inputs[p.ID], L)
		})
}

// requireLiveAgreement asserts that every node outside skip produced an
// output and that those outputs agree bit for bit — the degraded-cycle
// contract: decisions or attributed defaults, never divergence.
func requireLiveAgreement(t *testing.T, label string, res *sim.BatchResult, skip int) {
	t.Helper()
	var ref *consensus.Output
	for i, v := range res.Instances[0].Values {
		if i == skip {
			continue
		}
		o, ok := v.(*consensus.Output)
		if !ok || o == nil {
			t.Fatalf("%s: live node %d produced no output (%v)", label, i, v)
		}
		if ref == nil {
			ref = o
			continue
		}
		if !bytes.Equal(ref.Value, o.Value) || ref.Defaulted != o.Defaulted {
			t.Errorf("%s: live node %d decided %x/%v, others %x/%v",
				label, i, o.Value, o.Defaulted, ref.Value, ref.Defaulted)
		}
	}
}

// TestClusterPartitionMinorityDegrades is the graceful-degradation
// acceptance test: a partition isolating a single node (within the t-bound)
// must not stall the cycle — the surviving majority completes it well inside
// the stall budget, attributes the isolated node in the degradation report,
// and after the heal the cluster is bit-identical to the simulator again.
// Not parallel: it brackets the cluster's lifetime with a goroutine-leak
// check, which needs a quiet package.
func TestClusterPartitionMinorityDegrades(t *testing.T) {
	const n, tFaults, L = 4, 1, 256
	par := consensus.Params{N: n, T: tFaults, BSB: bsb.EIG}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{0xA5}, L/8)
	}

	// Settle to a goroutine baseline before the cluster exists.
	baseline := settledGoroutines()

	ff := &transport.FaultyFactory{Inner: transport.BusFactory{}}
	c := NewCluster(ff)
	c.StallTimeout = 300 * time.Millisecond
	if err := c.Connect(n); err != nil {
		t.Fatal(err)
	}

	simRes := consensusBatch(par, inputs, L, 61, sim.RunBatch)
	netRes := consensusBatch(par, inputs, L, 61, c.RunBatch)
	requireCycleMatchesSim(t, "pre-partition cycle", simRes, netRes)

	// Isolate node 3: the unlisted remainder {0,1,2} keeps quorum.
	if err := ff.Partition([]int{3}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	degRes := degradedBatch(par, inputs, L, 62, c)
	elapsed := time.Since(start)
	if degRes.Err != nil {
		t.Fatalf("partitioned cycle failed instead of degrading: %v", degRes.Err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("partitioned cycle took %v — it stalled instead of degrading promptly", elapsed)
	}
	if !slices.Contains(degRes.DegradedPeers, 3) {
		t.Errorf("DegradedPeers = %v, want the isolated node 3", degRes.DegradedPeers)
	}
	if slices.Contains(degRes.DegradedPeers, 0) || slices.Contains(degRes.DegradedPeers, 1) {
		t.Errorf("DegradedPeers = %v names majority-side nodes: a failed degrade leaked partial marks", degRes.DegradedPeers)
	}
	if !slices.Equal(degRes.PeersDown, []int{3}) {
		t.Errorf("PeersDown = %v, want [3]: only the isolated node is charged", degRes.PeersDown)
	}
	requireLiveAgreement(t, "partitioned cycle", degRes, 3)
	// The isolated node cannot resolve its rounds (3 silent peers exceed its
	// degrade bound of 1): its value goes missing rather than diverging.
	if v := degRes.Instances[0].Values[3]; v != nil {
		t.Errorf("isolated node produced a value (%v), want a missing output", v)
	}

	ff.HealAll()
	waitRoutersHealthy(t, c)
	for r := 0; r < 2; r++ {
		seed := int64(70 + r)
		simRes := consensusBatch(par, inputs, L, seed, sim.RunBatch)
		netRes := consensusBatch(par, inputs, L, seed, c.RunBatch)
		if netRes.Err != nil {
			t.Fatalf("cycle %d after heal: %v", r, netRes.Err)
		}
		if len(netRes.PeersDown) != 0 {
			t.Errorf("cycle %d after heal reports PeersDown = %v, want full membership", r, netRes.PeersDown)
		}
		requireCycleMatchesSim(t, "post-heal cycle", simRes, netRes)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for settledGoroutines() > baseline+2 {
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d at baseline, %d after Close — the degraded cycle leaked",
				baseline, goruntime.NumGoroutine())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// settledGoroutines samples the goroutine count after a short settling
// window, letting finished goroutines unwind.
func settledGoroutines() int {
	prev := goruntime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := goruntime.NumGoroutine()
		if cur >= prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// TestClusterCrashRestartRejoins covers the crash-restart recovery path:
// a node hard-killed between cycles leaves the next cycle degraded but
// deciding (its silence attributed), and after Restart it rejoins at the
// epoch boundary — later cycles are bit-identical to the simulator.
func TestClusterCrashRestartRejoins(t *testing.T) {
	t.Parallel()
	const n, tFaults, L = 4, 1, 256
	par := consensus.Params{N: n, T: tFaults, BSB: bsb.EIG}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{0x5A}, L/8)
	}
	ff := &transport.FaultyFactory{Inner: transport.BusFactory{}}
	c := NewCluster(ff)
	defer c.Close()
	c.StallTimeout = 300 * time.Millisecond
	if err := c.Connect(n); err != nil {
		t.Fatal(err)
	}

	simRes := consensusBatch(par, inputs, L, 81, sim.RunBatch)
	netRes := consensusBatch(par, inputs, L, 81, c.RunBatch)
	requireCycleMatchesSim(t, "pre-crash cycle", simRes, netRes)

	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(2); err == nil || !strings.Contains(err.Error(), "already dead") {
		t.Errorf("second Kill = %v, want an already-dead error", err)
	}

	degRes := degradedBatch(par, inputs, L, 82, c)
	if degRes.Err != nil {
		t.Fatalf("cycle with a crashed node failed instead of degrading: %v", degRes.Err)
	}
	if !slices.Contains(degRes.DegradedPeers, 2) {
		t.Errorf("DegradedPeers = %v, want the crashed node 2", degRes.DegradedPeers)
	}
	requireLiveAgreement(t, "crashed cycle", degRes, 2)
	if v := degRes.Instances[0].Values[2]; v != nil {
		t.Errorf("dead node produced a value (%v), want no body run at all", v)
	}

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err == nil || !strings.Contains(err.Error(), "not dead") {
		t.Errorf("second Restart = %v, want a not-dead error", err)
	}
	waitRoutersHealthy(t, c)

	for r := 0; r < 2; r++ {
		seed := int64(90 + r)
		simRes := consensusBatch(par, inputs, L, seed, sim.RunBatch)
		netRes := consensusBatch(par, inputs, L, seed, c.RunBatch)
		if netRes.Err != nil {
			t.Fatalf("cycle %d after restart: %v", r, netRes.Err)
		}
		if len(netRes.PeersDown) != 0 {
			t.Errorf("cycle %d after restart reports PeersDown = %v, want full membership", r, netRes.PeersDown)
		}
		requireCycleMatchesSim(t, "post-restart cycle", simRes, netRes)
	}
}

// TestClusterKillMidCycle exercises the in-flight half of Kill: a node
// crashed while its cycle is parked mid-round fails with a peer-attributed
// fault, and under graceful degradation the surviving nodes resolve the
// cycle against its silence instead of latching the failure.
func TestClusterKillMidCycle(t *testing.T) {
	t.Parallel()
	ff := &transport.FaultyFactory{Inner: transport.BusFactory{}}
	c := NewCluster(ff)
	defer c.Close()
	c.StallTimeout = 300 * time.Millisecond
	if err := c.Connect(4); err != nil {
		t.Fatal(err)
	}

	// Gate every body until the kill lands, so the crash is observably
	// mid-epoch: the routers hold attached runtimes when Kill fires.
	gate := make(chan struct{})
	done := make(chan *sim.BatchResult, 1)
	go func() {
		done <- c.RunBatch(sim.BatchConfig{N: 4, Seed: 5, Instances: 1, DegradePeers: 1},
			func(_ int, p *sim.Proc) any {
				<-gate
				p.Exchange("r1", nil, nil)
				return "done"
			})
	}()
	// The epoch attaches before bodies spawn; give the spawn a moment, then
	// crash node 2 while everyone is parked on the gate.
	time.Sleep(10 * time.Millisecond)
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	close(gate)

	res := <-done
	if res.Err != nil {
		t.Fatalf("mid-cycle kill latched the run: %v", res.Err)
	}
	if !slices.Contains(res.DegradedPeers, 2) {
		t.Errorf("DegradedPeers = %v, want the killed node 2", res.DegradedPeers)
	}
	for i, v := range res.Instances[0].Values {
		want := any("done")
		if i == 2 {
			want = nil
		}
		if v != want {
			t.Errorf("node %d value = %v, want %v", i, v, want)
		}
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCrashGuards pins the Kill/Restart validation errors: bad
// targets, missing meshes, and transports without the isolation capability
// fail with clear messages.
func TestClusterCrashGuards(t *testing.T) {
	t.Parallel()
	bare := NewCluster(transport.BusFactory{})
	defer bare.Close()
	if err := bare.Kill(0); err == nil || !strings.Contains(err.Error(), "no mesh") {
		t.Errorf("Kill before Connect = %v, want a no-mesh error", err)
	}
	if err := bare.Connect(3); err != nil {
		t.Fatal(err)
	}
	if err := bare.Kill(0); err == nil || !strings.Contains(err.Error(), "cannot isolate") {
		t.Errorf("Kill over a bare factory = %v, want a capability error", err)
	}

	ff := &transport.FaultyFactory{Inner: transport.BusFactory{}}
	c := NewCluster(ff)
	defer c.Close()
	if err := c.Connect(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(7); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Kill(7) = %v, want an out-of-range error", err)
	}
	if err := c.Restart(1); err == nil || !strings.Contains(err.Error(), "not dead") {
		t.Errorf("Restart of a live node = %v, want a not-dead error", err)
	}
}

// TestCoverUnionsSmallestCovers pins the one cover enumerator behind both the
// fault budget and PeersDown: it returns the union of every smallest set
// that contains the forced processors and touches every pair, and nil once
// the smallest sets outgrow the limit.
func TestCoverUnionsSmallestCovers(t *testing.T) {
	t.Parallel()
	const n = 100
	forced := func(ids ...int) []bool {
		f := make([]bool, n)
		for _, id := range ids {
			f[id] = true
		}
		return f
	}
	members := func(in []bool) []int {
		var out []int
		for v, x := range in {
			if x {
				out = append(out, v)
			}
		}
		return out
	}
	partition3 := [][2]int{{0, 3}, {1, 3}, {2, 3}, {3, 0}, {3, 1}, {3, 2}}
	// 34 disjoint flapped links at n=100, t=33: no cover fits, and the
	// search must say so without exploring 2^33 branches.
	var flapped [][2]int
	for i := 0; i < 68; i += 2 {
		flapped = append(flapped, [2]int{i, i + 1})
	}
	for _, tc := range []struct {
		name   string
		forced []bool
		pairs  [][2]int
		limit  int
		want   []int
	}{
		{"no pairs", forced(), nil, 1, []int{}},
		{"partitioned node", forced(), partition3, 1, []int{3}},
		{"partitioned node, spent", forced(3), partition3, 1, []int{3}},
		{"cut link: both ends", forced(), [][2]int{{1, 3}, {3, 1}}, 1, []int{1, 3}},
		{"cut link at a faulty end", forced(1), [][2]int{{1, 3}, {3, 1}}, 1, []int{1}},
		{"two disjoint links", forced(), [][2]int{{0, 1}, {2, 3}}, 2, []int{0, 1, 2, 3}},
		{"two disjoint links over the limit", forced(), [][2]int{{0, 1}, {2, 3}}, 1, nil},
		{"forced over the limit", forced(0, 1), nil, 1, nil},
		{"many disjoint links over the limit", forced(), flapped, 33, nil},
	} {
		c := cover(tc.forced, tc.pairs, tc.limit)
		if got := members(c); (c == nil) != (tc.want == nil) || !slices.Equal(got, tc.want) {
			t.Errorf("%s: cover = %v, want %v", tc.name, got, tc.want)
		}
	}
}
