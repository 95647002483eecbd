package byzcons_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"byzcons"
)

// TestSessionObservabilityTCP is the observability acceptance test: over a
// real loopback TCP mesh, a flushed cycle must surface its wall-clock
// breakdown in FlushReport.Timing, its latency histograms and transport
// gauges in Session.Snapshot, a well-formed text exposition in
// WriteMetrics, and a protocol trace (spans to the ring, JSONL to the sink).
func TestSessionObservabilityTCP(t *testing.T) {
	t.Parallel()
	const n, tf = 4, 1
	const values = 8

	var sink bytes.Buffer
	reports := make(chan byzcons.FlushReport, 2)
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config:      byzcons.Config{N: n, T: tf, Seed: 9},
		Transport:   byzcons.TransportTCP,
		BatchValues: 4,
		Instances:   2,
		Policy:      byzcons.FlushPolicy{MaxValues: -1, MaxDelay: -1},
		OnFlush:     func(rep byzcons.FlushReport) { reports <- rep },
		TraceRing:   512,
		TraceSink:   &sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pendings := make([]*byzcons.Pending, values)
	for i := range pendings {
		val := []byte(fmt.Sprintf("obs-value-%03d", i))
		if pendings[i], err = s.ProposeAsync(ctx, val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	close(reports) // every cycle reported before Drain returned
	rep, ok := <-reports
	if !ok || len(reports) != 0 {
		t.Fatalf("want exactly one cycle report for %d values", values)
	}
	for _, p := range pendings {
		if d := p.Wait(ctx); d.Err != nil {
			t.Fatal(d.Err)
		}
	}

	// Per-cycle wall-clock breakdown with exact decision percentiles.
	tm := rep.Timing
	if tm.Cycle <= 0 {
		t.Errorf("Timing.Cycle = %v, want > 0", tm.Cycle)
	}
	if tm.Decisions != values {
		t.Errorf("Timing.Decisions = %d, want %d", tm.Decisions, values)
	}
	if tm.DecisionP50 <= 0 || tm.DecisionP99 < tm.DecisionP50 || tm.DecisionMax < tm.DecisionP99 {
		t.Errorf("decision percentiles wrong: p50=%v p99=%v max=%v",
			tm.DecisionP50, tm.DecisionP99, tm.DecisionMax)
	}
	if tm.Broadcast <= 0 || tm.RS <= 0 {
		t.Errorf("phase breakdown empty: match=%v bcast=%v rs=%v diag=%v",
			tm.Match, tm.Broadcast, tm.RS, tm.Diagnosis)
	}

	// Registry snapshot: engine histograms, consensus phase counters,
	// node-layer gauges and the transport's wire accounting in one view.
	snap := s.Snapshot()
	if got := snap.Histograms["engine_decision_ns"].Count; got != values {
		t.Errorf("engine_decision_ns count = %d, want %d", got, values)
	}
	// Quantiles are log-bucket upper bounds clamped to the exact maximum:
	// ordered, and never above it.
	if h := snap.Histograms["engine_decision_ns"]; h.P50 <= 0 || h.P99 < h.P50 || h.P99 > h.Max {
		t.Errorf("decision histogram quantiles wrong: %+v", h)
	}
	if got := snap.Histograms["node_round_wait_ns"].Count; got <= 0 {
		t.Errorf("node_round_wait_ns count = %d, want > 0", got)
	}
	if got := snap.Histograms["transport_write_ns"].Count; got <= 0 {
		t.Errorf("transport_write_ns count = %d, want > 0 (sampled socket writes)", got)
	}
	if got := snap.Counters["consensus_phase_broadcast_ns"]; got <= 0 {
		t.Errorf("consensus_phase_broadcast_ns = %d, want > 0", got)
	}
	if got := snap.Gauges["transport_conns"]; got != int64(n*(n-1)) {
		t.Errorf("transport_conns = %d, want %d", got, n*(n-1))
	}
	if got := snap.Gauges["transport_frames_sent"]; got <= 0 {
		t.Errorf("transport_frames_sent = %d, want > 0", got)
	}
	if got := snap.Gauges["engine_decided"]; got != values {
		t.Errorf("engine_decided = %d, want %d", got, values)
	}

	// Text exposition: sorted "name value" lines carrying the same data.
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		fmt.Sprintf("engine_decision_ns_count %d", values),
		"transport_conns 12",
		"consensus_phase_broadcast_ns ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}

	// Trace: ring holds cycle and phase spans; every event also reached the
	// JSONL sink and round-trips through encoding/json.
	events := s.TraceEvents()
	var sawCycle, sawPhase bool
	for _, ev := range events {
		sawCycle = sawCycle || (ev.Cat == "cycle" && ev.Name == "flush")
		sawPhase = sawPhase || ev.Cat == "phase"
	}
	if !sawCycle || !sawPhase {
		t.Errorf("trace ring missing spans: cycle=%v phase=%v (%d events)", sawCycle, sawPhase, len(events))
	}
	lines := 0
	sc := bufio.NewScanner(&sink)
	for sc.Scan() {
		var ev byzcons.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("sink line %d not valid JSON: %v", lines, err)
		}
		if ev.TS == 0 || ev.Cat == "" || ev.Name == "" {
			t.Errorf("sink line %d missing fields: %+v", lines, ev)
		}
		lines++
	}
	if s.TraceDropped() == 0 && lines != len(events) {
		t.Errorf("sink carries %d events, ring %d (nothing dropped)", lines, len(events))
	}
}
