package consensus_test

import (
	"bytes"
	"fmt"
	"testing"

	"byzcons/internal/adversary"
	"byzcons/internal/consensus"
	"byzcons/internal/metrics"
	"byzcons/internal/sim"
)

// runSummary is what one instance of a run decided and spent.
type runSummary struct {
	value        []byte
	bits, rounds int64
	gens, diags  int
}

// summarize checks that the honest processors of one instance agree and
// returns their common outcome.
func summarize(t *testing.T, values []any, meter *metrics.Meter, faulty []int) runSummary {
	t.Helper()
	isFaulty := make(map[int]bool)
	for _, f := range faulty {
		isFaulty[f] = true
	}
	var s *runSummary
	for i, v := range values {
		if isFaulty[i] {
			continue
		}
		o := v.(*consensus.Output)
		if s == nil {
			s = &runSummary{value: o.Value, bits: meter.TotalBits(), rounds: meter.Rounds(),
				gens: o.Generations, diags: o.DiagnosisRuns}
			continue
		}
		if !bytes.Equal(o.Value, s.value) || o.Generations != s.gens || o.DiagnosisRuns != s.diags {
			t.Fatalf("honest processor %d diverges from the first honest processor", i)
		}
	}
	return *s
}

// TestBufferReuseAcrossConcurrentInstances exercises every buffer the
// generation loop reuses across barriers — the two encode stripes a worker
// alternates by generation, the simulator's inbox and Sync-result containers
// and the oracle's alternating contributions — with four instances running
// at once. Every instance has its own input, and each must reproduce, field
// for field, the same instance run alone. Processors 5 and 6 are outside
// every fault-free Pmatch, so they decode from their peers' stripes, up to
// the last generation, after the members have returned. The Equivocator
// forces diagnosis stages between the reused buffers.
func TestBufferReuseAcrossConcurrentInstances(t *testing.T) {
	t.Parallel()
	const n, tf, instances, L, seed = 7, 2, 4, 4096, 7
	input := func(inst int) []byte {
		v := make([]byte, L/8)
		for i := range v {
			v[i] = byte(i*7 + inst*61)
		}
		return v
	}
	par := consensus.Params{N: n, T: tf}
	for _, tc := range []struct {
		name   string
		faulty []int
		adv    sim.Adversary
	}{
		{"clean", nil, nil},
		{"equivocator", []int{1, 4}, adversary.Equivocator{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			want := make([]runSummary, instances)
			for k := range want {
				val := input(k)
				res := sim.Run(sim.RunConfig{N: n, Faulty: tc.faulty, Adversary: tc.adv, Seed: sim.InstanceSeed(seed, k)},
					func(p *sim.Proc) any { return consensus.Run(p, par, val, L) })
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				want[k] = summarize(t, res.Values, res.Meter, tc.faulty)
				if !bytes.Equal(want[k].value, val) {
					t.Fatalf("instance %d alone did not decide its common input", k)
				}
				if want[k].gens < 4 {
					t.Fatalf("instance %d ran %d generations, want at least 4", k, want[k].gens)
				}
				if tc.adv != nil && want[k].diags == 0 {
					t.Fatalf("instance %d: the equivocator forced no diagnosis", k)
				}
			}
			for rep := 0; rep < 3; rep++ {
				batch := sim.RunBatch(sim.BatchConfig{N: n, Faulty: tc.faulty, Adversary: tc.adv, Seed: seed, Instances: instances},
					func(inst int, p *sim.Proc) any { return consensus.Run(p, par, input(inst), L) })
				if batch.Err != nil {
					t.Fatal(batch.Err)
				}
				for k, ir := range batch.Instances {
					got, alone := summarize(t, ir.Values, ir.Meter, tc.faulty), want[k]
					if !bytes.Equal(got.value, alone.value) {
						t.Errorf("rep %d instance %d: batched value differs from the instance run alone", rep, k)
					}
					got.value, alone.value = nil, nil
					if fmt.Sprint(got) != fmt.Sprint(alone) {
						t.Errorf("rep %d instance %d: batched %+v, alone %+v", rep, k, got, alone)
					}
				}
			}
		})
	}
}
