package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"byzcons"
)

// TestDebugServerEndpoints: /metrics serves the text exposition, /events the
// trace ring as JSONL, and the expvar and pprof index pages answer.
func TestDebugServerEndpoints(t *testing.T) {
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config:    byzcons.Config{N: 4, T: 1, Seed: 3},
		Policy:    byzcons.FlushPolicy{MaxValues: -1, MaxDelay: -1},
		TraceRing: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := s.ProposeAsync(ctx, []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv, addr, err := startDebugServer("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{"engine_decided 4", "engine_cycle_ns_count", "consensus_phase_broadcast_ns"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	events := get("/events")
	if !strings.Contains(events, `"cat":"cycle"`) || !strings.Contains(events, `"cat":"phase"`) {
		t.Errorf("/events missing cycle/phase spans:\n%s", events)
	}
	if !strings.Contains(get("/debug/vars"), "memstats") {
		t.Error("/debug/vars missing memstats")
	}
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}
}

// TestServeTraceFileAndTracefmt: serve writes a JSONL trace, and tracefmt
// renders it as per-cycle span trees.
func TestServeTraceFileAndTracefmt(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	var buf bytes.Buffer
	err := serve(&buf, byzcons.Config{N: 4, T: 1, Seed: 2}, byzcons.Scenario{}, byzcons.TransportSim,
		serveOpts{
			values: 8, valBytes: 24, batch: 4, instances: 2, ingest: 2,
			maxDelay: byzcons.DefaultMaxDelay, traceFile: traceFile,
		})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out bytes.Buffer
	if err := tracefmt(&out, f); err != nil {
		t.Fatal(err)
	}
	rendered := out.String()
	if !strings.Contains(rendered, "cycle 0  flush") {
		t.Errorf("tracefmt missing cycle span tree:\n%s", rendered)
	}
	for _, phase := range []string{"broadcast", "rs"} {
		if !strings.Contains(rendered, phase) {
			t.Errorf("tracefmt missing %s phase span:\n%s", phase, rendered)
		}
	}
	if !strings.Contains(rendered, "flush/trigger") {
		t.Errorf("tracefmt missing flush trigger event:\n%s", rendered)
	}
}

// TestTracefmtRejectsGarbage: a non-JSON line fails with its line number.
func TestTracefmtRejectsGarbage(t *testing.T) {
	err := tracefmt(io.Discard, strings.NewReader("{\"cat\":\"cycle\",\"name\":\"flush\",\"ts\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("garbage line accepted: %v", err)
	}
}
