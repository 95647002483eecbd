package byzcons_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"byzcons"
)

// keyForShard returns a deterministic key routing to the given shard.
func keyForShard(t *testing.T, shards, shard, salt int) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := []byte(fmt.Sprintf("key-%d-%d", salt, i))
		if byzcons.ShardOf(key, shards) == shard {
			return key
		}
	}
	t.Fatalf("no key found for shard %d/%d", shard, shards)
	return nil
}

// TestShardOfStableAndUniform pins the partitioner's contract: deterministic
// (including golden values guarding cross-process stability), in-range, an
// explicit S=1 fast path, and uniform within ~10% over random keys.
func TestShardOfStableAndUniform(t *testing.T) {
	t.Parallel()
	// Golden placements: these must never change across runs, processes or
	// releases — clients compute placement with the same pure function.
	goldens := []struct {
		key    string
		shards int
		want   int
	}{
		{"", 8, 6},
		{"user:17", 8, 7},
		{"user:17", 4, 3},
		{"a", 2, 1},
	}
	for _, g := range goldens {
		if got := byzcons.ShardOf([]byte(g.key), g.shards); got != g.want {
			t.Errorf("ShardOf(%q, %d) = %d, want %d (placement must be stable)", g.key, g.shards, got, g.want)
		}
	}
	// S=1 fast path: every key routes to shard 0.
	for _, k := range []string{"", "x", "user:17", "\x00\xff"} {
		if got := byzcons.ShardOf([]byte(k), 1); got != 0 {
			t.Errorf("ShardOf(%q, 1) = %d, want 0", k, got)
		}
	}
	// Uniformity: over random keys, each of 8 shards holds its fair share
	// within 10%.
	const shards, keys = 8, 80000
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, shards)
	buf := make([]byte, 16)
	for i := 0; i < keys; i++ {
		rng.Read(buf)
		s := byzcons.ShardOf(buf, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf out of range: %d", s)
		}
		counts[s]++
	}
	fair := float64(keys) / shards
	for s, c := range counts {
		if dev := float64(c)/fair - 1; dev > 0.10 || dev < -0.10 {
			t.Errorf("shard %d holds %d keys (%.1f%% off the fair share %v)", s, c, dev*100, fair)
		}
	}
}

// FuzzShardPartitioner fuzzes the partitioner's invariants: in-range,
// deterministic across calls, independent of slice identity, and the S=1
// fast path.
func FuzzShardPartitioner(f *testing.F) {
	f.Add([]byte("user:17"), 8)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xff, 0x00, 0x80}, 3)
	f.Add([]byte("a longer key with some entropy 0123456789"), 1024)
	f.Fuzz(func(t *testing.T, key []byte, shards int) {
		if shards < 1 || shards > byzcons.MaxShards {
			t.Skip()
		}
		got := byzcons.ShardOf(key, shards)
		if got < 0 || got >= shards {
			t.Fatalf("ShardOf(%x, %d) = %d out of range", key, shards, got)
		}
		if again := byzcons.ShardOf(key, shards); again != got {
			t.Fatalf("ShardOf not deterministic: %d then %d", got, again)
		}
		if clone := byzcons.ShardOf(append([]byte(nil), key...), shards); clone != got {
			t.Fatalf("ShardOf depends on slice identity: %d vs %d", got, clone)
		}
		if shards == 1 && got != 0 {
			t.Fatalf("S=1 fast path returned %d", got)
		}
	})
}

// TestFleetSingleShardMatchesSession is the compatibility criterion: a
// one-shard fleet decides bit-identically to a plain Session and to the
// simulator backend under gallery adversaries — the fleet layer adds
// routing, not behavior. Shard 0 runs on the configured seed unchanged, so
// the equivalence is exact.
func TestFleetSingleShardMatchesSession(t *testing.T) {
	t.Parallel()
	const n, tf, values = 7, 2, 6
	for _, tc := range acceptanceScenarios(true) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			manual := byzcons.FlushPolicy{MaxValues: -1, MaxDelay: -1}
			base := byzcons.SessionConfig{
				Config:   byzcons.Config{N: n, T: tf, Seed: 9},
				Scenario: tc.sc,
				Policy:   manual,
			}

			proposals := make([][]byte, values)
			for i := range proposals {
				proposals[i] = bytes.Repeat([]byte{byte(0x41 + i)}, 24)
			}

			// Fleet (S=1) over the networked bus.
			fcfg := base
			fcfg.Transport = byzcons.TransportBus
			fleet, err := byzcons.OpenFleet(byzcons.FleetConfig{SessionConfig: fcfg, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			// Plain Session on the simulator.
			sess, err := byzcons.Open(base)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			var fp, sp []*byzcons.Pending
			for i, v := range proposals {
				p1, err := fleet.ProposeAsync(ctx, []byte(fmt.Sprintf("k%d", i)), v)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := sess.ProposeAsync(ctx, v)
				if err != nil {
					t.Fatal(err)
				}
				fp, sp = append(fp, p1), append(sp, p2)
			}
			if err := fleet.Drain(context.Background()); err != nil {
				t.Fatalf("fleet flush: %v", err)
			}
			if err := sess.Drain(context.Background()); err != nil {
				t.Fatalf("session flush: %v", err)
			}
			for i := range fp {
				fd, sd := fp[i].Wait(ctx), sp[i].Wait(ctx)
				if fd.Err != nil || sd.Err != nil {
					t.Fatalf("decision %d errs: fleet %v, session %v", i, fd.Err, sd.Err)
				}
				if !bytes.Equal(fd.Value, sd.Value) || fd.Batch != sd.Batch || fd.Defaulted != sd.Defaulted {
					t.Errorf("decision %d diverges: fleet %+v, session %+v", i, fd, sd)
				}
			}
			fst, sst := fleet.Stats(), sess.Stats()
			if fst.Aggregate.Bits != sst.Bits || fst.Aggregate.Rounds != sst.Rounds {
				t.Errorf("accounting diverges: fleet bits=%d rounds=%d, session bits=%d rounds=%d",
					fst.Aggregate.Bits, fst.Aggregate.Rounds, sst.Bits, sst.Rounds)
			}
		})
	}
}

// TestFleetSharedMeshTCP is the one-mesh acceptance test: a 4-shard fleet
// over loopback TCP runs at least one policy-triggered cycle per shard —
// cycles interleaving across shards — on exactly one mesh dial with a flat
// n(n-1) connection count, and every decision is bit-identical to the same
// workload on a simulator-backed twin fleet. OnFlush names each shard once
// per cycle that shard ran.
func TestFleetSharedMeshTCP(t *testing.T) {
	t.Parallel()
	const n, tf, shards, perShard = 4, 1, 4, 4
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var repMu sync.Mutex
	reported := make([]int, shards) // OnFlush calls per shard, TCP fleet only
	run := func(tk byzcons.TransportKind) ([]byzcons.Decision, *byzcons.Fleet) {
		var onFlush func(byzcons.FlushReport)
		if tk == byzcons.TransportTCP {
			onFlush = func(rep byzcons.FlushReport) {
				repMu.Lock()
				defer repMu.Unlock()
				if rep.Shard < 0 || rep.Shard >= shards {
					t.Errorf("report names shard %d, want [0,%d)", rep.Shard, shards)
					return
				}
				reported[rep.Shard]++
			}
		}
		f, err := byzcons.OpenFleet(byzcons.FleetConfig{
			SessionConfig: byzcons.SessionConfig{
				Config:      byzcons.Config{N: n, T: tf, Seed: 5},
				Scenario:    byzcons.Scenario{Faulty: []int{1}, Behavior: byzcons.Equivocator{}},
				Transport:   tk,
				BatchValues: perShard,
				Instances:   1,
				// The perShard-th proposal of a shard trips its trigger: one
				// policy-driven cycle per shard, no delay backstop.
				Policy:  byzcons.FlushPolicy{MaxValues: perShard, MaxDelay: -1},
				OnFlush: onFlush,
			},
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		var pendings []*byzcons.Pending
		for s := 0; s < shards; s++ {
			for i := 0; i < perShard; i++ {
				key := keyForShard(t, shards, s, i)
				val := bytes.Repeat([]byte{byte(0x50 + s), byte(i)}, 10)
				p, err := f.ProposeAsync(ctx, key, val)
				if err != nil {
					t.Fatal(err)
				}
				pendings = append(pendings, p)
			}
		}
		var decisions []byzcons.Decision
		for i, p := range pendings {
			d := p.Wait(ctx)
			if d.Err != nil {
				t.Fatalf("%v decision %d: %v", tk, i, d.Err)
			}
			decisions = append(decisions, d)
		}
		return decisions, f
	}

	tcpDecisions, tcpFleet := run(byzcons.TransportTCP)
	simDecisions, simFleet := run(byzcons.TransportSim)
	defer simFleet.Close()

	// One mesh for all shards: a single dial, connections flat at n(n-1).
	if dials := tcpFleet.MeshDials(); dials != 1 {
		t.Errorf("%d-shard fleet dialed %d meshes, want exactly 1", shards, dials)
	}
	if conns := tcpFleet.WireStats().Conns; conns != int64(n*(n-1)) {
		t.Errorf("connection counter = %d, want %d (one shared mesh)", conns, n*(n-1))
	}
	st := tcpFleet.Stats()
	if st.Aggregate.Cycles < 3 {
		t.Errorf("fleet ran %d cycles, want >= 3 policy-triggered cycles", st.Aggregate.Cycles)
	}
	busyShards := 0
	for _, ps := range st.PerShard {
		if ps.Cycles > 0 {
			busyShards++
		}
	}
	if busyShards < 2 {
		t.Errorf("cycles ran on %d shards, want >= 2 (no cross-shard interleaving)", busyShards)
	}

	// Decisions bit-identical to the simulator-backed twin fleet.
	if len(tcpDecisions) != len(simDecisions) {
		t.Fatalf("decision counts diverge: tcp %d, sim %d", len(tcpDecisions), len(simDecisions))
	}
	for i := range tcpDecisions {
		td, sd := tcpDecisions[i], simDecisions[i]
		if !bytes.Equal(td.Value, sd.Value) || td.Batch != sd.Batch || td.Defaulted != sd.Defaulted {
			t.Errorf("decision %d diverges across backends: tcp %+v, sim %+v", i, td, sd)
		}
	}

	// Shard-tagged reports: OnFlush names each shard exactly once per cycle
	// it ran. Close waits out every cycle, so the counts are final after it.
	if err := tcpFleet.Close(); err != nil {
		t.Fatal(err)
	}
	st = tcpFleet.Stats()
	repMu.Lock()
	defer repMu.Unlock()
	for s, ps := range st.PerShard {
		if reported[s] != ps.Cycles {
			t.Errorf("OnFlush named shard %d %d times, want its %d cycles", s, reported[s], ps.Cycles)
		}
	}
}

// TestFleetConfigValidation pins the fleet-specific validation: shard-count
// bounds and the chaos rule (a schedule anchors on shard 0's cycle clock, so
// it needs exactly one shard).
func TestFleetConfigValidation(t *testing.T) {
	t.Parallel()
	base := byzcons.SessionConfig{Config: byzcons.Config{N: 4, T: 1}}
	if err := (byzcons.FleetConfig{SessionConfig: base}).Validate(); err != nil {
		t.Errorf("zero Shards must default to 1 and validate: %v", err)
	}
	if err := (byzcons.FleetConfig{SessionConfig: base, Shards: byzcons.MaxShards + 1}).Validate(); err == nil {
		t.Error("Shards above MaxShards must be rejected")
	}
	if err := (byzcons.FleetConfig{SessionConfig: base, Shards: -1}).Validate(); err == nil {
		t.Error("negative Shards must be rejected")
	}
	chaosCfg := base
	chaosCfg.Transport = byzcons.TransportBus
	chaosCfg.Chaos = "7:cut(1,3)@c1"
	if err := (byzcons.FleetConfig{SessionConfig: chaosCfg, Shards: 2}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "Chaos is not supported on a Fleet (cycle-anchored schedules are ambiguous across shards)") {
		t.Errorf("Chaos on a 2-shard fleet: Validate = %v, want the cycle-anchor rejection", err)
	}
	if err := (byzcons.FleetConfig{SessionConfig: chaosCfg, Shards: 1}).Validate(); err != nil {
		t.Errorf("Chaos on a one-shard fleet must validate: %v", err)
	}
	// Aggregate observability surfaces exist on a fresh fleet.
	f, err := byzcons.OpenFleet(byzcons.FleetConfig{SessionConfig: base, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumShards() != 2 {
		t.Errorf("NumShards = %d, want 2", f.NumShards())
	}
	if got := f.ShardFor([]byte("user:17")); got != byzcons.ShardOf([]byte("user:17"), 2) {
		t.Errorf("ShardFor diverges from ShardOf: %d", got)
	}
	var buf bytes.Buffer
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WriteMetrics wrote nothing")
	}
}
