package byzcons_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"byzcons"
)

// TestPipelineCrossBackendAgreement is the pipelined counterpart of the TCP
// acceptance test: with Window > 1 the simulator, the in-process bus and the
// loopback TCP cluster must decide bit-identically — value, generation
// count, diagnosis progress, isolated set and the deterministic pipeline
// schedule (pipelined rounds, squash count) — under the gallery adversaries,
// including a case that forces a squash in the middle of a full window.
// Metered bits are deliberately not compared: squashed speculation completes
// a scheduling-dependent number of rounds before unwinding, so under
// Window > 1 the meters measure work rather than pin an invariant.
func TestPipelineCrossBackendAgreement(t *testing.T) {
	t.Parallel()
	const n, tf = 7, 2
	L := 32768
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

	scenarios := []struct {
		name string
		sc   byzcons.Scenario
	}{
		{"equivocator", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Equivocator{}}},
		{"silent", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Silent{}}},
		{"matchliar", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.MatchLiar{}}},
		// A mid-window squash: the window is full of clean speculative
		// generations when the equivocation at generations 6..7 triggers a
		// diagnosis, invalidating them all.
		{"midwindow-squash", byzcons.Scenario{Faulty: []int{1, 4},
			Behavior: byzcons.Equivocator{FromGen: 6, ToGen: 7}}},
	}

	for _, tc := range scenarios {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := byzcons.Config{N: n, T: tf, Window: 4, Seed: 3}
			var results []*byzcons.ClusterResult
			for _, kind := range []byzcons.TransportKind{
				byzcons.TransportSim, byzcons.TransportBus, byzcons.TransportTCP,
			} {
				res, err := byzcons.ClusterConsensus(cfg, inputs, L, tc.sc, kind)
				if err != nil {
					t.Fatalf("%v backend: %v", kind, err)
				}
				if !res.Consistent {
					t.Fatalf("%v backend: inconsistent honest decisions", kind)
				}
				results = append(results, res)
			}
			ref := results[0]
			if !bytes.Equal(ref.Value, val) {
				t.Errorf("decided %x..., want the common input", ref.Value[:4])
			}
			if tc.name == "midwindow-squash" && ref.Squashes == 0 {
				t.Error("mid-window scenario did not force a squash")
			}
			for _, res := range results[1:] {
				if !bytes.Equal(res.Value, ref.Value) || res.Defaulted != ref.Defaulted {
					t.Errorf("%s decision diverges from %s", res.Transport, ref.Transport)
				}
				if res.Generations != ref.Generations || res.DiagnosisRuns != ref.DiagnosisRuns {
					t.Errorf("%s progress %d/%d diverges from %s %d/%d", res.Transport,
						res.Generations, res.DiagnosisRuns, ref.Transport, ref.Generations, ref.DiagnosisRuns)
				}
				if !reflect.DeepEqual(res.Isolated, ref.Isolated) {
					t.Errorf("%s isolated set %v diverges from %s %v",
						res.Transport, res.Isolated, ref.Transport, ref.Isolated)
				}
				if res.PipelinedRounds != ref.PipelinedRounds || res.Squashes != ref.Squashes {
					t.Errorf("%s pipeline schedule %d/%d diverges from %s %d/%d", res.Transport,
						res.PipelinedRounds, res.Squashes, ref.Transport, ref.PipelinedRounds, ref.Squashes)
				}
			}
		})
	}
}

// TestPipelineWindowOneClusterUnchanged pins that Window = 1 over the
// networked backends is still the exact sequential protocol: identical
// decisions AND identical meters against the simulator (the stricter
// variant reserved for squash-free runs).
func TestPipelineWindowOneClusterUnchanged(t *testing.T) {
	t.Parallel()
	const n, tf, L = 4, 1, 8192
	val := bytes.Repeat([]byte{0x5C}, L/8)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	cfg := byzcons.Config{N: n, T: tf, Window: 1, Seed: 7}
	sc := byzcons.Scenario{Faulty: []int{2}, Behavior: byzcons.Equivocator{}}
	simRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportSim)
	if err != nil {
		t.Fatal(err)
	}
	busRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportBus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simRes.Value, busRes.Value) || simRes.Bits != busRes.Bits ||
		simRes.Rounds != busRes.Rounds || simRes.PipelinedRounds != busRes.PipelinedRounds {
		t.Errorf("Window=1 bus diverges from simulator: %d/%d/%d vs %d/%d/%d",
			busRes.Bits, busRes.Rounds, busRes.PipelinedRounds,
			simRes.Bits, simRes.Rounds, simRes.PipelinedRounds)
	}
	if simRes.Squashes != 0 || busRes.Squashes != 0 {
		t.Errorf("Window=1 reported squashes: sim %d, bus %d", simRes.Squashes, busRes.Squashes)
	}
}

// TestSessionWindowedPipeline runs a manually flushed Session with a
// pipelined window over the bus backend: per-client decisions must be
// unchanged and the per-batch pipelined round count must beat the sequential
// run of the same workload.
func TestSessionWindowedPipeline(t *testing.T) {
	t.Parallel()
	run := func(window int) (values [][]byte, pipeRounds int64) {
		s, err := byzcons.Open(byzcons.SessionConfig{
			Config:      byzcons.Config{N: 4, T: 1, Window: window, Seed: 5},
			Transport:   byzcons.TransportBus,
			BatchValues: 16,
			Instances:   1,
			Policy:      manualPolicy(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const count = 16
		pendings := make([]*byzcons.Pending, count)
		for i := range pendings {
			v := bytes.Repeat([]byte{byte(i + 1)}, 64)
			if pendings[i], err = s.ProposeAsync(context.Background(), v); err != nil {
				t.Fatal(err)
			}
		}
		report, err := s.Flush()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pendings {
			d := p.Wait(context.Background())
			if d.Err != nil {
				t.Fatal(d.Err)
			}
			values = append(values, d.Value)
		}
		for _, b := range report.Batches {
			pipeRounds += b.PipelinedRounds
		}
		return values, pipeRounds
	}
	seqVals, seqRounds := run(1)
	pipeVals, pipeRounds := run(8)
	if !reflect.DeepEqual(seqVals, pipeVals) {
		t.Error("windowed session decisions diverge from sequential")
	}
	if pipeRounds >= seqRounds {
		t.Errorf("window 8 pipelined rounds %d not below sequential %d", pipeRounds, seqRounds)
	}
}
