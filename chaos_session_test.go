package byzcons_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"byzcons"
)

// chaosWaves opens a session — or, with asFleet, a one-shard fleet — under
// the given chaos spec and drives exactly one flush cycle per wave (manual
// policy, Drain per wave), returning the decisions in proposal order, the
// per-cycle reports in commit order, and the fired fault log.
func chaosWaves(t *testing.T, spec string, waves, perWave int, asFleet bool) ([]byzcons.Decision, []byzcons.FlushReport, []byzcons.ChaosRecord) {
	t.Helper()
	var mu sync.Mutex
	var reports []byzcons.FlushReport
	cfg := byzcons.SessionConfig{
		Config:      byzcons.Config{N: 4, T: 1, Seed: 33},
		Transport:   byzcons.TransportBus,
		Chaos:       spec,
		BatchValues: perWave,
		Policy:      manualPolicy(),
		OnFlush: func(rep byzcons.FlushReport) {
			mu.Lock()
			reports = append(reports, rep)
			mu.Unlock()
		},
	}
	// What the two surfaces share, plus their one difference: the propose call.
	var s interface {
		Drain(context.Context) error
		ChaosLog() []byzcons.ChaosRecord
		Close() error
	}
	var propose func(context.Context, []byte) (*byzcons.Pending, error)
	var err error
	if asFleet {
		var f *byzcons.Fleet
		if f, err = byzcons.OpenFleet(byzcons.FleetConfig{SessionConfig: cfg, Shards: 1}); err == nil {
			s, propose = f, func(ctx context.Context, v []byte) (*byzcons.Pending, error) {
				return f.ProposeAsync(ctx, []byte("any key"), v)
			}
		}
	} else {
		var ss *byzcons.Session
		if ss, err = byzcons.Open(cfg); err == nil {
			s, propose = ss, ss.ProposeAsync
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var decisions []byzcons.Decision
	for w := 0; w < waves; w++ {
		pendings := make([]*byzcons.Pending, perWave)
		for i := range pendings {
			val := bytes.Repeat([]byte{byte(0x40 + w), byte(i)}, 8)
			if pendings[i], err = propose(ctx, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("wave %d: %v", w, err)
		}
		for i, p := range pendings {
			d := p.Wait(ctx)
			if d.Err != nil {
				t.Fatalf("wave %d decision %d: %v", w, i, d.Err)
			}
			decisions = append(decisions, d)
		}
	}
	log := s.ChaosLog()
	mu.Lock()
	defer mu.Unlock()
	return decisions, slices.Clone(reports), log
}

// TestSessionChaosReplayableTimeline is the determinism acceptance test for
// the chaos layer: two sessions opened with the same (seed, schedule) and
// the same workload fire identical fault logs and decide identical bits —
// and so does a one-shard fleet, whose schedule anchors on shard 0's cycle
// clock through the same construction path.
// The schedule isolates node 3 for exactly cycle 1 — that cycle completes
// degraded with the isolation attributed, and the surrounding cycles are
// clean.
func TestSessionChaosReplayableTimeline(t *testing.T) {
	t.Parallel()
	const spec = "7:partition(3)@c1;healall@c2"
	const waves, perWave = 3, 4

	dec1, reps1, log1 := chaosWaves(t, spec, waves, perWave, false)
	dec2, reps2, log2 := chaosWaves(t, spec, waves, perWave, false)
	decF, repsF, logF := chaosWaves(t, spec, waves, perWave, true)

	if len(log1) != 2 {
		t.Fatalf("fired %d chaos events, want the full schedule (2): %+v", len(log1), log1)
	}
	for _, rec := range log1 {
		if rec.Err != "" {
			t.Errorf("chaos event %q failed: %s", rec.Event, rec.Err)
		}
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Errorf("same (seed, schedule) fired different fault logs:\n  %+v\n  %+v", log1, log2)
	}
	if !reflect.DeepEqual(log1, logF) {
		t.Errorf("one-shard fleet fired a different fault log than the session:\n  %+v\n  %+v", log1, logF)
	}

	if len(dec1) != len(dec2) || len(dec1) != len(decF) {
		t.Fatalf("decision counts diverge: %d vs %d vs fleet %d", len(dec1), len(dec2), len(decF))
	}
	for i := range dec1 {
		for _, other := range []byzcons.Decision{dec2[i], decF[i]} {
			if !bytes.Equal(dec1[i].Value, other.Value) || dec1[i].Batch != other.Batch ||
				dec1[i].Defaulted != other.Defaulted {
				t.Errorf("decision %d diverges across replays: %+v vs %+v", i, dec1[i], other)
			}
		}
	}

	if len(reps1) != waves {
		t.Fatalf("got %d per-cycle reports, want %d", len(reps1), waves)
	}
	for w, rep := range reps1 {
		if rep.Err != nil {
			t.Fatalf("cycle %d failed under chaos: %v", w, rep.Err)
		}
		if w == 1 {
			if !slices.Contains(rep.DegradedPeers, 3) {
				t.Errorf("cycle 1 report degraded peers = %v, want the isolated node 3 attributed",
					rep.DegradedPeers)
			}
			if !slices.Contains(rep.PeersDown, 3) {
				t.Errorf("cycle 1 PeersDown = %v, want node 3", rep.PeersDown)
			}
		} else {
			if len(rep.DegradedPeers) != 0 || len(rep.PeersDown) != 0 {
				t.Errorf("cycle %d should be clean, got degraded %v / down %v",
					w, rep.DegradedPeers, rep.PeersDown)
			}
		}
	}
	for _, other := range [][]byzcons.FlushReport{reps2, repsF} {
		if len(other) != waves || !reflect.DeepEqual(reps1[1].PeersDown, other[1].PeersDown) ||
			!reflect.DeepEqual(reps1[1].DegradedPeers, other[1].DegradedPeers) {
			t.Errorf("degraded-cycle attribution diverges across replays: %+v vs %+v", reps1[1], other)
		}
	}
}

// TestSessionChaosRotatingFlapPeersDown pins FlushReport.PeersDown across
// consecutive cycles under a rotating flap schedule: each cycle's report
// names exactly the pair cut for that cycle, and — the failure-latch
// regression — a peer healed before a cycle began never bleeds into that
// cycle's report.
func TestSessionChaosRotatingFlapPeersDown(t *testing.T) {
	t.Parallel()
	const spec = "5:cut(0,1)@c1;heal(0,1)@c2;cut(1,2)@c2;heal(1,2)@c3;cut(2,3)@c3;heal(2,3)@c4"
	const waves, perWave = 5, 2

	_, reps, log := chaosWaves(t, spec, waves, perWave, false)
	if len(log) != 6 {
		t.Fatalf("fired %d chaos events, want the full schedule (6): %+v", len(log), log)
	}
	want := [][]int{
		0: nil,
		1: {0, 1},
		2: {1, 2},
		3: {2, 3},
		4: nil,
	}
	if len(reps) != waves {
		t.Fatalf("got %d per-cycle reports, want %d", len(reps), waves)
	}
	for w, rep := range reps {
		if rep.Err != nil {
			t.Fatalf("cycle %d failed under the flap schedule: %v", w, rep.Err)
		}
		if !slices.Equal(rep.PeersDown, want[w]) {
			t.Errorf("cycle %d PeersDown = %v, want %v", w, rep.PeersDown, want[w])
		}
		if wantDeg, deg := want[w] != nil, len(rep.DegradedPeers) > 0; deg != wantDeg {
			t.Errorf("cycle %d degraded = %v (%v), want %v", w, deg, rep.DegradedPeers, wantDeg)
		}
	}
}

// TestSessionFaultBudgetCountsByzantineAndDegraded: the Byzantine
// processors and the peers a cycle degrades around spend one budget,
// |Faulty ∪ degraded| <= t. At n=7, t=2 with one equivocator, one isolated
// honest node still fits (and is attributed); two isolated honest nodes
// overflow the budget and the cycle fails saying so; isolating the
// equivocator itself costs nothing extra, so it plus one honest node fits.
// The budget holds across nodes, not only at each one: two cut links between
// disjoint honest pairs keep every node's own view within t — each end
// degrades around one peer — yet need two more faulty processors beside the
// equivocator to explain, so the cycle fails instead of deciding silently.
func TestSessionFaultBudgetCountsByzantineAndDegraded(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name, chaos string
		degraded    []int // nil: the cycle must fail on the budget
	}{
		{"one honest isolated", "5:partition(6)", []int{6}},
		{"two honest isolated", "5:partition(5|6)", nil},
		{"byzantine and one honest isolated", "5:partition(1|6)", []int{1, 6}},
		{"two disjoint honest links cut", "5:cut(2,3)@c0;cut(4,5)@c0", nil},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var mu sync.Mutex
			var reports []byzcons.FlushReport
			s, err := byzcons.Open(byzcons.SessionConfig{
				Config:      byzcons.Config{N: 7, T: 2, Seed: 21},
				Scenario:    byzcons.Scenario{Faulty: []int{1}, Behavior: byzcons.Equivocator{}},
				Transport:   byzcons.TransportBus,
				Chaos:       tc.chaos,
				BatchValues: 4,
				Policy:      manualPolicy(),
				OnFlush: func(rep byzcons.FlushReport) {
					mu.Lock()
					reports = append(reports, rep)
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			val := bytes.Repeat([]byte{0xB7, 0x01}, 8)
			p, err := s.ProposeAsync(ctx, val)
			if err != nil {
				t.Fatal(err)
			}
			drainErr := s.Drain(ctx)
			d := p.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			if len(reports) != 1 {
				t.Fatalf("got %d cycle reports, want 1", len(reports))
			}
			rep := reports[0]
			if tc.degraded == nil {
				for what, err := range map[string]error{"Drain": drainErr, "decision": d.Err, "report": rep.Err} {
					if err == nil || !strings.Contains(err.Error(), "fault budget t=2 exceeded") {
						t.Errorf("%s error = %v, want the fault budget named", what, err)
					}
				}
				return
			}
			if drainErr != nil || d.Err != nil {
				t.Fatalf("cycle within the budget failed: Drain %v, decision %v", drainErr, d.Err)
			}
			if !bytes.Equal(d.Value, val) {
				t.Errorf("decided %x, want the proposal", d.Value)
			}
			if !reflect.DeepEqual(rep.DegradedPeers, tc.degraded) {
				t.Errorf("report degraded peers = %v, want %v attributed", rep.DegradedPeers, tc.degraded)
			}
		})
	}
}

// TestSessionChaosConfigValidation: chaos specs are vetted at Open — the
// simulator backend, malformed schedules and out-of-range nodes are all
// rejected up front.
func TestSessionChaosConfigValidation(t *testing.T) {
	t.Parallel()
	base := byzcons.SessionConfig{Config: byzcons.Config{N: 4, T: 1}}
	for name, mut := range map[string]func(*byzcons.SessionConfig){
		"chaos on the simulator": func(c *byzcons.SessionConfig) {
			c.Chaos = "1:cut(0,1)@c1" // Transport defaults to TransportSim
		},
		"malformed spec": func(c *byzcons.SessionConfig) {
			c.Transport, c.Chaos = byzcons.TransportBus, "not-a-schedule"
		},
		"node out of range": func(c *byzcons.SessionConfig) {
			c.Transport, c.Chaos = byzcons.TransportBus, "1:cut(0,9)@c1"
		},
	} {
		cfg := base
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", name)
		}
		if _, err := byzcons.Open(cfg); err == nil {
			t.Errorf("%s: Open accepted", name)
		}
	}
}
