package byzcons

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"byzcons/internal/transport"
)

// TestFleetCrossShardFaultIsolation is the fault-isolation acceptance test:
// a peer fault injected while one shard's cycle runs — first a cut link,
// then a hard crash — degrades only that shard's cycle, with PeersDown /
// DegradedPeers attribution naming the afflicted peers in that shard's
// report alone; after the fault heals, every other shard's cycle completes
// undegraded and decides bit-identically to a simulator-backed twin fleet.
func TestFleetCrossShardFaultIsolation(t *testing.T) {
	t.Parallel()
	const n, tf, shards = 4, 1, 4
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	manual := FlushPolicy{MaxValues: -1, MaxDelay: -1}
	cfg := FleetConfig{
		SessionConfig: SessionConfig{
			Config:      Config{N: n, T: tf, Seed: 11},
			Transport:   TransportBus,
			BatchValues: 4,
			Instances:   1,
			Policy:      manual,
		},
		Shards: shards,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	twinCfg := cfg
	twinCfg.Transport = TransportSim

	// Each shard's cycle reports land on the shard's own channel.
	reports := make([]chan FlushReport, shards)
	for s := range reports {
		reports[s] = make(chan FlushReport, 4)
	}
	cfg.OnFlush = func(rep FlushReport) { reports[rep.Shard] <- rep }

	// The fleet under test runs over a fault-injection wrapper of the bus;
	// the twin runs the same workload on the simulator backend.
	faulty := &transport.FaultyFactory{Inner: transport.BusFactory{}, Seed: 1}
	d, err := open(cfg.SessionConfig, cfg.Shards, faulty)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &Fleet{d}
	defer fleet.Close()
	twin, err := OpenFleet(twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()

	// keyFor returns a deterministic key routing to the given shard.
	keyFor := func(shard, salt int) []byte {
		for i := 0; i < 100000; i++ {
			key := []byte(fmt.Sprintf("iso-%d-%d", salt, i))
			if ShardOf(key, shards) == shard {
				return key
			}
		}
		t.Fatalf("no key for shard %d", shard)
		return nil
	}

	// propose queues one wave of values on every shard of both fleets and
	// returns the pendings indexed by shard.
	propose := func(wave int) (fp, tp [][]*Pending) {
		fp, tp = make([][]*Pending, shards), make([][]*Pending, shards)
		for s := 0; s < shards; s++ {
			for i := 0; i < 3; i++ {
				key := keyFor(s, wave*10+i)
				val := bytes.Repeat([]byte{byte(0x60 + s), byte(wave), byte(i)}, 8)
				p1, err := fleet.ProposeAsync(ctx, key, val)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := twin.ProposeAsync(ctx, key, val)
				if err != nil {
					t.Fatal(err)
				}
				fp[s] = append(fp[s], p1)
				tp[s] = append(tp[s], p2)
			}
		}
		return fp, tp
	}

	// drain flushes shard s of the fleet under test and returns the report
	// of the one cycle its three queued values make.
	drain := func(phase string, s int) FlushReport {
		t.Helper()
		if err := fleet.shards[s].eng.Drain(ctx); err != nil {
			t.Fatalf("%s: shard %d drain: %v", phase, s, err)
		}
		select {
		case rep := <-reports[s]:
			return rep
		default:
			t.Fatalf("%s: shard %d drained without a cycle report", phase, s)
			return FlushReport{}
		}
	}

	// checkClean flushes one healthy shard on both fleets and asserts an
	// undegraded, attribution-free cycle deciding bit-identically to the twin.
	checkClean := func(phase string, s int, fp, tp [][]*Pending) {
		t.Helper()
		rep := drain(phase, s)
		if len(rep.DegradedPeers) > 0 || len(rep.PeersDown) > 0 {
			t.Fatalf("%s: healthy shard %d's cycle carries fault attribution: degradedPeers=%v peersDown=%v",
				phase, s, rep.DegradedPeers, rep.PeersDown)
		}
		if err := twin.shards[s].eng.Drain(ctx); err != nil {
			t.Fatalf("%s: twin shard %d drain: %v", phase, s, err)
		}
		for i := range fp[s] {
			fd, td := fp[s][i].Wait(ctx), tp[s][i].Wait(ctx)
			if fd.Err != nil || td.Err != nil {
				t.Fatalf("%s: shard %d decision %d errs: fleet %v, twin %v", phase, s, i, fd.Err, td.Err)
			}
			if !bytes.Equal(fd.Value, td.Value) || fd.Defaulted != td.Defaulted || fd.Batch != td.Batch {
				t.Fatalf("%s: shard %d decision %d diverges from the simulator twin: %+v vs %+v", phase, s, i, fd, td)
			}
		}
	}

	// attributed asserts the afflicted shard's report names only peers from
	// the expected set.
	attributed := func(phase string, rep FlushReport, want map[int]bool) {
		t.Helper()
		named := append(append([]int(nil), rep.PeersDown...), rep.DegradedPeers...)
		if len(named) == 0 {
			t.Fatalf("%s: afflicted shard's report carries no attribution: %+v", phase, rep)
		}
		for _, p := range named {
			if !want[p] {
				t.Fatalf("%s: attribution names peer %d outside the afflicted set %v", phase, p, want)
			}
		}
	}

	// Phase 1 — cut one link while only shard 1 flushes. Shard 1's cycle
	// completes degraded with the cut endpoints attributed; after healing,
	// the other shards flush clean and match the twin.
	fp, tp := propose(1)
	faulty.CutPair(0, 2)
	attributed("cut", drain("cut", 1), map[int]bool{0: true, 2: true})
	faulty.HealPair(0, 2)
	// The twin's shard 1 must still flush (decisions may differ from the
	// degraded cycle; only the healthy shards are compared).
	if err := twin.shards[1].eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 2, 3} {
		checkClean("cut", s, fp, tp)
	}

	// Phase 2 — hard-crash node 3 while only shard 2 flushes; the crash is
	// attributed in shard 2's report, and after Restart the other shards'
	// cycles are clean and bit-identical to the twin again.
	fp, tp = propose(2)
	if err := fleet.cluster.Kill(3); err != nil {
		t.Fatal(err)
	}
	attributed("crash", drain("crash", 2), map[int]bool{3: true})
	if err := fleet.cluster.Restart(3); err != nil {
		t.Fatal(err)
	}
	if err := twin.shards[2].eng.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, s := range []int{0, 1, 3} {
		checkClean("crash", s, fp, tp)
	}
}
