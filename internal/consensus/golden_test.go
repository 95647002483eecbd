package consensus_test

import (
	"bytes"
	"testing"

	"byzcons/internal/adversary"
	"byzcons/internal/consensus"
	"byzcons/internal/sim"
)

// goldenRun executes one simulated consensus with all-equal inputs and
// returns the run and the honest processors' common output.
func goldenRun(t *testing.T, n, tf, L int, faulty []int, adv sim.Adversary, seed int64) (*sim.RunResult, *consensus.Output) {
	t.Helper()
	val := make([]byte, (L+7)/8)
	for i := range val {
		val[i] = byte(0x41 + i%26)
	}
	par := consensus.Params{N: n, T: tf}
	res := sim.Run(sim.RunConfig{N: n, Faulty: faulty, Adversary: adv, Seed: seed}, func(p *sim.Proc) any {
		return consensus.Run(p, par, val, L)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	isFaulty := make(map[int]bool)
	for _, f := range faulty {
		isFaulty[f] = true
	}
	var ref *consensus.Output
	for i, v := range res.Values {
		if isFaulty[i] {
			continue
		}
		o := v.(*consensus.Output)
		if ref == nil {
			ref = o
			continue
		}
		if !bytes.Equal(o.Value, ref.Value) || o.Defaulted != ref.Defaulted || !o.Graph.Equal(ref.Graph) ||
			o.Rounds != ref.Rounds {
			t.Fatalf("honest processor %d diverges from the reference", i)
		}
	}
	return res, ref
}

// TestWindowOneMatchesPreRefactorGolden pins the generation loop against
// outputs recorded from the first sequential implementation (PR 2):
// identical decisions, generations, diagnosis counts, metered bits and
// rounds, for clean and attacked runs.
func TestWindowOneMatchesPreRefactorGolden(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name        string
		n, tf, L    int
		faulty      []int
		adv         sim.Adversary
		rounds      int64
		bits        int64
		gens, diags int
	}{
		// Golden numbers recorded from the pre-pipeline sequential
		// implementation (PR 2) at Seed 1 with all-equal inputs.
		{"clean-n7", 7, 2, 8192, nil, nil, 129, 301000, 43, 0},
		{"equivocator-n7", 7, 2, 8192, []int{1, 4}, adversary.Equivocator{}, 131, 325038, 43, 1},
		{"silent-n7", 7, 2, 8192, []int{1, 4}, adversary.Silent{}, 129, 267976, 43, 0},
		{"matchliar-n7", 7, 2, 8192, []int{1, 4}, adversary.MatchLiar{}, 129, 301000, 43, 0},
		{"edgemiser-n7", 7, 2, 65536, []int{0, 1}, adversary.EdgeMiser{T: 2}, 387, 1246624, 125, 6},
		{"clean-n4", 4, 1, 4096, nil, nil, 96, 37888, 32, 0},
		{"equivocator-n4", 4, 1, 4096, []int{2}, adversary.Equivocator{}, 98, 40448, 32, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, ref := goldenRun(t, tc.n, tc.tf, tc.L, tc.faulty, tc.adv, 1)
			if got := res.Meter.Rounds(); got != tc.rounds {
				t.Errorf("rounds = %d, want pre-refactor %d", got, tc.rounds)
			}
			if got := res.Meter.TotalBits(); got != tc.bits {
				t.Errorf("bits = %d, want pre-refactor %d", got, tc.bits)
			}
			if ref.Generations != tc.gens || ref.DiagnosisRuns != tc.diags {
				t.Errorf("gens/diags = %d/%d, want %d/%d", ref.Generations, ref.DiagnosisRuns, tc.gens, tc.diags)
			}
			if ref.Rounds != res.Meter.Rounds() {
				t.Errorf("Output.Rounds = %d, want the metered round count %d", ref.Rounds, res.Meter.Rounds())
			}
			want := make([]byte, (tc.L+7)/8)
			for i := range want {
				want[i] = byte(0x41 + i%26)
			}
			if !bytes.Equal(ref.Value, want) {
				t.Errorf("decided %x..., want the common input", ref.Value[:4])
			}
		})
	}
}

// TestWindowDefaultedRun checks the early-exit path: differing honest inputs
// default in generation 0, and the run ends there — exactly one generation.
func TestWindowDefaultedRun(t *testing.T) {
	t.Parallel()
	const n, tf, L = 4, 1, 8192
	par := consensus.Params{N: n, T: tf}
	res := sim.Run(sim.RunConfig{N: n, Seed: 1}, func(p *sim.Proc) any {
		input := make([]byte, L/8)
		for i := range input {
			input[i] = byte(p.ID) // every processor starts with a different value
		}
		return consensus.Run(p, par, input, L)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, v := range res.Values {
		o := v.(*consensus.Output)
		if !o.Defaulted {
			t.Errorf("processor %d did not default", i)
		}
		if o.Generations != 1 {
			t.Errorf("processor %d ran %d generations, want 1", i, o.Generations)
		}
	}
}
