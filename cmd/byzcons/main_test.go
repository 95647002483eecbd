package main

import (
	"bytes"
	"strings"
	"testing"

	"byzcons"
)

func TestParseIDs(t *testing.T) {
	got, err := parseIDs("1, 4,6")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 6 {
		t.Errorf("parseIDs = %v, %v", got, err)
	}
	if got, err := parseIDs(""); err != nil || got != nil {
		t.Errorf("empty parse = %v, %v", got, err)
	}
	if _, err := parseIDs("1,x"); err == nil {
		t.Error("bad id accepted")
	}
}

func TestMakeAdversaryCoversAllNames(t *testing.T) {
	for _, name := range advNames() {
		adv, err := makeAdversary(name, 2)
		if err != nil {
			t.Errorf("makeAdversary(%q): %v", name, err)
		}
		if name != "none" && adv == nil {
			t.Errorf("makeAdversary(%q) returned nil", name)
		}
	}
	if _, err := makeAdversary("bogus", 2); err == nil {
		t.Error("bogus adversary accepted")
	}
}

func TestReportRendering(t *testing.T) {
	val := bytes.Repeat([]byte{0xAB}, 32)
	inputs := make([][]byte, 4)
	for i := range inputs {
		inputs[i] = val
	}
	res, err := byzcons.Consensus(byzcons.Config{N: 4, T: 1}, inputs, 256, byzcons.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, "consensus", 4, 1, 256, byzcons.BroadcastOracle, res)
	out := buf.String()
	for _, want := range []string{"consistent=true", "bits by stage", "match.sym", "paper predictions", "Eq.3"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestServeModeReportsAmortizedBits(t *testing.T) {
	var buf bytes.Buffer
	cfg := byzcons.Config{N: 7, T: 2, Seed: 1}
	sc := byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Equivocator{Victims: []int{6}}}
	if err := serve(&buf, cfg, sc, byzcons.TransportSim, serveOpts{values: 8, valBytes: 32, batch: 4, instances: 2, ingest: 4, maxDelay: byzcons.DefaultMaxDelay}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cycle", "decided=8", "defaulted=0", "bits/value", "meshDials=0", "pipelined rounds="} {
		if !strings.Contains(out, want) {
			t.Errorf("serve report missing %q:\n%s", want, out)
		}
	}
}

// TestServeModeIngestOverTCP is the end-to-end smoke of the streaming ingest
// loop on a real transport: concurrent clients, policy-triggered cycles, one
// mesh dial for the whole run.
func TestServeModeIngestOverTCP(t *testing.T) {
	var buf bytes.Buffer
	cfg := byzcons.Config{N: 4, T: 1, Seed: 1}
	if err := serve(&buf, cfg, byzcons.Scenario{}, byzcons.TransportTCP, serveOpts{values: 12, valBytes: 24, batch: 3, instances: 2, ingest: 4, maxDelay: byzcons.DefaultMaxDelay}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"decided=12", "meshDials=1", "conns=12", "wire: frames="} {
		if !strings.Contains(out, want) {
			t.Errorf("serve TCP report missing %q:\n%s", want, out)
		}
	}
}

func TestServeSweepRendersCurve(t *testing.T) {
	var buf bytes.Buffer
	cfg := byzcons.Config{N: 4, T: 1, Seed: 1}
	if err := serve(&buf, cfg, byzcons.Scenario{}, byzcons.TransportSim, serveOpts{values: 8, valBytes: 32, batch: 4, instances: 2, ingest: 1, maxDelay: byzcons.DefaultMaxDelay, sweep: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One header plus rows for batch sizes 1, 2, 4.
	if got := strings.Count(out, "\n"); got != 5 {
		t.Errorf("sweep rendered %d lines, want 5:\n%s", got, out)
	}
}

func TestClusterModeCrossChecksBackends(t *testing.T) {
	var buf bytes.Buffer
	cfg := byzcons.Config{N: 4, T: 1, Seed: 1}
	sc := byzcons.Scenario{Faulty: []int{1}, Behavior: byzcons.Equivocator{}}
	val := bytes.Repeat([]byte{0xEE}, 128)
	inputs := make([][]byte, 4)
	for i := range inputs {
		inputs[i] = val
	}
	if err := cluster(&buf, cfg, sc, inputs, 1024, byzcons.TransportBus); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"transport=bus", "decisions identical", "encodedBytes=", "encodedBits/meteredBits"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster report missing %q:\n%s", want, out)
		}
	}
}

func TestClusterModeRejectsSimTransport(t *testing.T) {
	if err := cluster(&bytes.Buffer{}, byzcons.Config{N: 4, T: 1}, byzcons.Scenario{}, nil, 8, byzcons.TransportSim); err == nil {
		t.Error("sim transport accepted for cluster mode")
	}
}

func TestParseTransportDefaults(t *testing.T) {
	if tk, err := parseTransport("", byzcons.TransportTCP); err != nil || tk != byzcons.TransportTCP {
		t.Errorf("empty = %v, %v", tk, err)
	}
	if tk, err := parseTransport("bus", byzcons.TransportTCP); err != nil || tk != byzcons.TransportBus {
		t.Errorf("bus = %v, %v", tk, err)
	}
	if _, err := parseTransport("carrier-pigeon", byzcons.TransportSim); err == nil {
		t.Error("bogus transport accepted")
	}
}

func TestServeRejectsBadWorkload(t *testing.T) {
	if err := serve(&bytes.Buffer{}, byzcons.Config{N: 4, T: 1}, byzcons.Scenario{}, byzcons.TransportSim, serveOpts{values: 0, valBytes: 32, batch: 4, instances: 2, ingest: 1, maxDelay: byzcons.DefaultMaxDelay}); err == nil {
		t.Error("values=0 accepted")
	}
}

func TestTraceOutput(t *testing.T) {
	val := bytes.Repeat([]byte{0xCD}, 24)
	inputs := make([][]byte, 7)
	for i := range inputs {
		inputs[i] = val
	}
	var trace bytes.Buffer
	cfg := byzcons.Config{N: 7, T: 2, Lanes: 1, SymBits: 8, Trace: &trace}
	_, err := byzcons.Consensus(cfg, inputs, 192, byzcons.Scenario{
		Faulty:   []int{5, 6},
		Behavior: byzcons.FalseDetector{},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if !strings.Contains(out, "diagnosis") || !strings.Contains(out, "isolated=[5 6]") {
		t.Errorf("trace missing diagnosis lines:\n%s", out)
	}
	if !strings.Contains(out, "clean") {
		t.Errorf("trace missing clean generations:\n%s", out)
	}
}
