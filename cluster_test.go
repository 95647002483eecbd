package byzcons_test

import (
	"bytes"
	"context"
	"testing"

	"byzcons"
)

// acceptanceScenarios are the gallery adversaries the networked backends are
// validated against. EdgeMiser requires the faulty set {0, ..., t-1}; the
// others attack from arbitrary ids.
func acceptanceScenarios(short bool) []struct {
	name string
	sc   byzcons.Scenario
} {
	all := []struct {
		name string
		sc   byzcons.Scenario
	}{
		{"equivocator", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Equivocator{}}},
		{"silent", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Silent{}}},
		{"matchliar", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.MatchLiar{}}},
		// The isolation-heavy attacks run at full L only: once they get the
		// faulty nodes isolated, metered bits per generation shrink while
		// the n(n-1) barrier frames do not, so the encoded/metered ratio
		// needs the large-L regime the paper (and this criterion) target.
		{"trustliar", byzcons.Scenario{Faulty: []int{1, 4},
			Behavior: byzcons.Attacks{byzcons.Equivocator{}, byzcons.TrustLiar{}}}},
		{"edgemiser", byzcons.Scenario{Faulty: []int{0, 1}, Behavior: byzcons.EdgeMiser{T: 2}}},
	}
	if short {
		return all[:3] // still >= 3 gallery adversaries in -short runs
	}
	return all
}

// TestClusterTCPAcceptance is the PR's acceptance criterion: an n=7, t=2
// consensus run over the TCP transport on loopback decides the same value
// as the simulator backend under the gallery adversaries, with encoded
// on-wire bytes within 2x of the metered protocol bits. The deterministic,
// node-local deviations of these adversaries make the equivalence exact:
// not just the value but the metered traffic is identical bit for bit.
func TestClusterTCPAcceptance(t *testing.T) {
	t.Parallel()
	const n, tFaults = 7, 2
	L := 65536
	if testing.Short() {
		L = 16384
	}
	val := make([]byte, L/8)
	for i := range val {
		val[i] = byte(0x41 + i%26)
	}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	cfg := byzcons.Config{N: n, T: tFaults, Seed: 3}

	for _, tc := range acceptanceScenarios(testing.Short()) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			simRes, err := byzcons.ClusterConsensus(cfg, inputs, L, tc.sc, byzcons.TransportSim)
			if err != nil {
				t.Fatalf("simulator backend: %v", err)
			}
			tcpRes, err := byzcons.ClusterConsensus(cfg, inputs, L, tc.sc, byzcons.TransportTCP)
			if err != nil {
				t.Fatalf("tcp backend: %v", err)
			}
			if !tcpRes.Consistent || !simRes.Consistent {
				t.Fatalf("inconsistent honest decisions: tcp=%v sim=%v", tcpRes.Consistent, simRes.Consistent)
			}
			if !bytes.Equal(tcpRes.Value, simRes.Value) || tcpRes.Defaulted != simRes.Defaulted {
				t.Errorf("decisions diverge: tcp %x/%v, sim %x/%v",
					tcpRes.Value, tcpRes.Defaulted, simRes.Value, simRes.Defaulted)
			}
			if !bytes.Equal(tcpRes.Value, val) {
				t.Errorf("decided %x..., want the common input", tcpRes.Value[:8])
			}
			if tcpRes.Bits != simRes.Bits {
				t.Errorf("metered bits diverge: tcp %d, sim %d", tcpRes.Bits, simRes.Bits)
			}
			if tcpRes.Rounds != simRes.Rounds {
				t.Errorf("rounds diverge: tcp %d, sim %d", tcpRes.Rounds, simRes.Rounds)
			}
			if tcpRes.Generations != simRes.Generations || tcpRes.DiagnosisRuns != simRes.DiagnosisRuns {
				t.Errorf("progress diverges: tcp gens/diags %d/%d, sim %d/%d",
					tcpRes.Generations, tcpRes.DiagnosisRuns, simRes.Generations, simRes.DiagnosisRuns)
			}
			encodedBits := tcpRes.Wire.BytesSent * 8
			if encodedBits > 2*tcpRes.Bits {
				t.Errorf("encoded %d bits on the wire for %d metered protocol bits (%.2fx > 2x)",
					encodedBits, tcpRes.Bits, float64(encodedBits)/float64(tcpRes.Bits))
			}
			if tcpRes.Wire.FramesSent == 0 {
				t.Error("no wire traffic accounted")
			}
		})
	}
}

// TestClusterBusMatchesTCP pins the two networked backends against each
// other: same frames, same decisions, same meters — only the medium differs.
func TestClusterBusMatchesTCP(t *testing.T) {
	t.Parallel()
	const n, L = 4, 2048
	val := bytes.Repeat([]byte{0x2B}, L/8)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	cfg := byzcons.Config{N: n, T: 1, Broadcast: byzcons.BroadcastEIG, Seed: 11}
	sc := byzcons.Scenario{Faulty: []int{2}, Behavior: byzcons.Equivocator{}}

	busRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportBus)
	if err != nil {
		t.Fatal(err)
	}
	tcpRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportTCP)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(busRes.Value, tcpRes.Value) || busRes.Bits != tcpRes.Bits || busRes.Rounds != tcpRes.Rounds {
		t.Errorf("bus and tcp diverge: %x/%d/%d vs %x/%d/%d",
			busRes.Value[:4], busRes.Bits, busRes.Rounds, tcpRes.Value[:4], tcpRes.Bits, tcpRes.Rounds)
	}
	if busRes.Wire.FramesSent != tcpRes.Wire.FramesSent {
		t.Errorf("frame counts diverge: bus %d, tcp %d", busRes.Wire.FramesSent, tcpRes.Wire.FramesSent)
	}
	// TCP carries the same encoded frames plus a length prefix per frame.
	if tcpRes.Wire.BytesSent <= busRes.Wire.BytesSent {
		t.Errorf("tcp bytes (%d) not above bus bytes (%d) despite framing overhead",
			tcpRes.Wire.BytesSent, busRes.Wire.BytesSent)
	}
}

// TestSessionOverNetworkedBackends runs a manually flushed Session end to end
// over both networked transports: client values in, per-client decisions
// out, across real encoded frames, with wire accounting exposed.
func TestSessionOverNetworkedBackends(t *testing.T) {
	t.Parallel()
	for _, tk := range []byzcons.TransportKind{byzcons.TransportBus, byzcons.TransportTCP} {
		tk := tk
		t.Run(tk.String(), func(t *testing.T) {
			t.Parallel()
			s, err := byzcons.Open(byzcons.SessionConfig{
				Config:      byzcons.Config{N: 4, T: 1, Seed: 5},
				Scenario:    byzcons.Scenario{Faulty: []int{1}, Behavior: byzcons.Equivocator{}},
				Transport:   tk,
				BatchValues: 4,
				Instances:   2,
				Policy:      manualPolicy(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const values = 12
			pendings := make([]*byzcons.Pending, values)
			want := make([][]byte, values)
			for i := range pendings {
				want[i] = []byte{byte(i), byte(i + 1), byte(i + 2)}
				if pendings[i], err = s.ProposeAsync(context.Background(), want[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, p := range pendings {
				d := p.Wait(context.Background())
				if d.Err != nil {
					t.Fatalf("value %d: %v", i, d.Err)
				}
				if !bytes.Equal(d.Value, want[i]) {
					t.Errorf("value %d decided %x, want %x", i, d.Value, want[i])
				}
			}
			if ws := s.WireStats(); ws.BytesSent == 0 || ws.FramesSent == 0 {
				t.Errorf("no wire accounting for %v backend: %+v", tk, ws)
			}
		})
	}
}

// TestSessionSimBackendUnchanged pins that the default session is still the
// simulator: no wire traffic, same decisions as before this subsystem.
func TestSessionSimBackendUnchanged(t *testing.T) {
	t.Parallel()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config: byzcons.Config{N: 4, T: 1, Seed: 5}, BatchValues: 4, Policy: manualPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, err := s.ProposeAsync(context.Background(), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := p.Wait(context.Background()); d.Err != nil || !bytes.Equal(d.Value, []byte("hello")) {
		t.Fatalf("decision = %+v", d)
	}
	if ws := s.WireStats(); ws != (byzcons.WireStats{}) {
		t.Errorf("simulator backend accounted wire traffic: %+v", ws)
	}
}
