package engine

import (
	"context"
	"sync"
	"testing"

	"byzcons/internal/obs"
)

// TestEngineTimingAndMetrics: a flush cycle fills in Report.Timing (cycle
// wall-clock, per-phase partition, exact decision percentiles), records the
// matching histograms and counters in the registry, and traces cycle and
// phase spans.
func TestEngineTimingAndMetrics(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchValues = 4
	cfg.Instances = 2
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(256, nil)
	cfg.Tracer.SetEnabled(true)
	reports := collectReports(&cfg, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pendings := submitN(t, e, 10, 16)
	reps := drainReports(t, e, reports)
	for _, p := range pendings {
		if d := p.Wait(context.Background()); d.Err != nil {
			t.Fatal(d.Err)
		}
	}

	// 10 values over two cycles (8 + 2): each cycle times its own work.
	if len(reps) != 2 {
		t.Fatalf("got %d cycle reports, want 2", len(reps))
	}
	decisions := 0
	for _, rep := range reps {
		tm := rep.Timing
		decisions += tm.Decisions
		if tm.Cycle <= 0 {
			t.Errorf("cycle %d: Timing.Cycle = %v, want > 0", rep.Cycle, tm.Cycle)
		}
		if tm.Decisions != rep.Values {
			t.Errorf("cycle %d: Timing.Decisions = %d, want %d", rep.Cycle, tm.Decisions, rep.Values)
		}
		if tm.DecisionP50 <= 0 {
			t.Errorf("cycle %d: DecisionP50 = %v, want > 0", rep.Cycle, tm.DecisionP50)
		}
		if tm.DecisionP90 < tm.DecisionP50 || tm.DecisionP99 < tm.DecisionP90 || tm.DecisionMax < tm.DecisionP99 {
			t.Errorf("cycle %d: percentiles out of order: p50=%v p90=%v p99=%v max=%v",
				rep.Cycle, tm.DecisionP50, tm.DecisionP90, tm.DecisionP99, tm.DecisionMax)
		}
		// Fail-free run: real matching/broadcast/RS work, no diagnoses.
		if tm.Broadcast <= 0 || tm.RS <= 0 {
			t.Errorf("cycle %d: phase partition empty: match=%v bcast=%v rs=%v", rep.Cycle, tm.Match, tm.Broadcast, tm.RS)
		}
		if tm.Match < 0 || tm.Diagnosis != 0 {
			t.Errorf("cycle %d: unexpected phase values: match=%v diag=%v", rep.Cycle, tm.Match, tm.Diagnosis)
		}
	}
	if decisions != 10 {
		t.Errorf("Timing.Decisions sum to %d, want 10", decisions)
	}

	snap := e.Metrics().Snapshot()
	if got := snap.Histograms["engine_decision_ns"].Count; got != 10 {
		t.Errorf("engine_decision_ns count = %d, want 10", got)
	}
	if got := snap.Histograms["engine_queue_wait_ns"].Count; got != 10 {
		t.Errorf("engine_queue_wait_ns count = %d, want 10", got)
	}
	if got := snap.Histograms["engine_cycle_ns"].Count; got < 1 {
		t.Errorf("engine_cycle_ns count = %d, want >= 1", got)
	}
	if got := snap.Counters["consensus_phase_broadcast_ns"]; got <= 0 {
		t.Errorf("consensus_phase_broadcast_ns = %d, want > 0", got)
	}
	if got := snap.Gauges["engine_decided"]; got != 10 {
		t.Errorf("engine_decided gauge = %d, want 10", got)
	}

	var sawCycle, sawPhase bool
	phases := map[string]bool{"match": true, "broadcast": true, "rs": true, "diagnosis": true}
	for _, ev := range cfg.Tracer.Events() {
		switch ev.Cat {
		case "cycle":
			if ev.Name == "flush" && ev.Dur > 0 {
				sawCycle = true
			}
		case "phase":
			if !phases[ev.Name] {
				t.Errorf("unknown phase event %q", ev.Name)
			}
			sawPhase = true
		}
	}
	if !sawCycle || !sawPhase {
		t.Errorf("trace missing spans: cycle=%v phase=%v (of %d events)",
			sawCycle, sawPhase, len(cfg.Tracer.Events()))
	}
}

// TestEngineTimingZeroWhenDisabled: DisableMetrics turns the whole layer
// off — Timing stays zeroed and nothing lands in the registry.
func TestEngineTimingZeroWhenDisabled(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchValues = 4
	cfg.DisableMetrics = true
	reports := collectReports(&cfg, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, e, 4, 16)
	reps := drainReports(t, e, reports)
	if len(reps) != 1 || reps[0].Timing != (Timing{}) {
		t.Errorf("Timing recorded with metrics disabled: %+v", reps)
	}
	if snap := e.Metrics().Snapshot(); len(snap.Histograms) != 0 {
		t.Errorf("histograms registered with metrics disabled: %v", snap.Histograms)
	}
}

// poolDropsItems reports whether sync.Pool loses items put into it, as it does
// on purpose under the race detector. The protocol's scratch pools then
// refill at random and no two cycles allocate the same.
func poolDropsItems() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// cycleAllocs returns the heap allocations of one flush cycle of an engine on
// the simulator runner — values values of size bytes in one instance, one
// RS lane so the instance runs many generations — averaged over several
// cycles, along with the generations per instance.
func cycleAllocs(t *testing.T, disable bool, values, size int) (allocs float64, gens int) {
	t.Helper()
	cfg := testConfig()
	cfg.Consensus.Lanes = 1
	cfg.BatchValues = values
	cfg.Instances = 1
	cfg.DisableMetrics = disable
	cfg.OnCycle = func(rep Report) { gens = rep.Batches[0].Generations }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	allocs = testing.AllocsPerRun(10, func() {
		_, pendings := submitN(t, e, values, size)
		if err := e.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, p := range pendings {
			if d := p.Wait(context.Background()); d.Err != nil {
				t.Fatal(d.Err)
			}
		}
	})
	return allocs, gens
}

// TestMetricsOverheadGuard is the observability overhead guard, in the one
// currency that is deterministic: with the tracer off, a cycle with metrics
// on may allocate only a small constant more than its DisableMetrics twin,
// however many generations its instances run. (Time is left to bench/.) The
// budget is per cycle — the decision-latency slice, the phase-timer
// closure — and the long cycle runs well over a hundred generations, so a
// single allocation per timed generation overshoots it several times over.
func TestMetricsOverheadGuard(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool drops items at random (race detector): allocation counts are not deterministic")
	}
	const budget = 32
	for _, tc := range []struct{ values, size int }{{4, 16}, {16, 32}} {
		off, gens := cycleAllocs(t, true, tc.values, tc.size)
		on, _ := cycleAllocs(t, false, tc.values, tc.size)
		t.Logf("%d generations: %.0f allocs/cycle with metrics on, %.0f off, overhead %.0f", gens, on, off, on-off)
		if on-off > budget {
			t.Errorf("%d generations: metrics add %.0f allocations per cycle, budget %d", gens, on-off, budget)
		}
		if tc.values == 16 && gens < 2*budget {
			t.Errorf("long cycle ran %d generations, too few for the budget %d to expose a per-generation allocation", gens, budget)
		}
	}
}
