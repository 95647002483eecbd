package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"byzcons/internal/sim"
	"byzcons/internal/transport"
)

// TestClusterShardsRunConcurrently is the load-bearing concurrency proof of
// the shard layer: two shards' epochs rendezvous mid-cycle — every body of
// shard 0 waits for shard 1's cycle to have started and vice versa — which
// can only complete if the cluster runs both epochs at once on the shared
// mesh. Under the old cluster-wide run lock this deadlocks (and fails via
// the timeout); with per-shard serialization both cycles interleave their
// frames on one mesh and still decide correctly.
func TestClusterShardsRunConcurrently(t *testing.T) {
	t.Parallel()
	const n = 3
	c := NewCluster(transport.BusFactory{})
	c.Shards = 2
	defer c.Close()
	if err := c.Connect(n); err != nil {
		t.Fatal(err)
	}

	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var once [2]sync.Once
	body := func(shard int) func(*sim.Proc) any {
		return func(p *sim.Proc) any {
			once[shard].Do(func() { close(started[shard]) })
			select {
			case <-started[1-shard]:
			case <-time.After(20 * time.Second):
				return fmt.Errorf("shard %d never saw shard %d start a cycle: shards are serialized", shard, 1-shard)
			}
			return gatherBody(p)
		}
	}

	var wg sync.WaitGroup
	results := make([]*sim.RunResult, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s] = c.ShardRunner(s).Run(sim.RunConfig{N: n, Seed: int64(100 + s)}, body(s))
		}(s)
	}
	wg.Wait()

	for s, res := range results {
		if res.Err != nil {
			t.Fatalf("shard %d: %v", s, res.Err)
		}
		for i, v := range res.Values {
			if err, ok := v.(error); ok {
				t.Fatalf("shard %d node %d: %v", s, i, err)
			}
			// gatherBody at n=3: every node's exchange sum is 0+1+2, the
			// sync total 3*3.
			if v != int64(9) {
				t.Errorf("shard %d node %d = %v, want 9", s, i, v)
			}
		}
	}
	if d := c.MeshDials(); d != 1 {
		t.Errorf("two concurrent shard cycles dialed %d meshes, want 1", d)
	}
}

// TestClusterShardRunnerOutOfRange pins that a runner handle outside the
// configured shard count fails the run instead of corrupting routing state.
func TestClusterShardRunnerOutOfRange(t *testing.T) {
	t.Parallel()
	c := NewCluster(transport.BusFactory{})
	c.Shards = 2
	defer c.Close()
	res := c.ShardRunner(2).Run(sim.RunConfig{N: 3, Seed: 1}, gatherBody)
	if res.Err == nil {
		t.Fatal("out-of-range shard runner must fail the run")
	}
}

// TestClusterShardedEpochsMatchUnsharded pins that a shard's consecutive
// epochs behave exactly like an unsharded cluster's: same results run after
// run, with per-shard epoch ids advancing independently.
func TestClusterShardedEpochsMatchUnsharded(t *testing.T) {
	t.Parallel()
	const n = 4
	c := NewCluster(transport.BusFactory{})
	c.Shards = 3
	defer c.Close()
	for cycle := 0; cycle < 3; cycle++ {
		for s := 0; s < 3; s++ {
			res := c.ShardRunner(s).Run(sim.RunConfig{N: n, Seed: 7}, gatherBody)
			if res.Err != nil {
				t.Fatalf("cycle %d shard %d: %v", cycle, s, res.Err)
			}
			for i, v := range res.Values {
				if v != int64(24) {
					t.Errorf("cycle %d shard %d node %d = %v, want 24", cycle, s, i, v)
				}
			}
		}
	}
	if d := c.MeshDials(); d != 1 {
		t.Errorf("9 shard cycles dialed %d meshes, want 1", d)
	}
}
