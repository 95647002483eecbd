package byzcons_test

import (
	"context"
	"fmt"
	"testing"

	"byzcons"
	"byzcons/internal/experiments"
)

// benchExperiment reruns one experiment table per iteration (reduced grid).
// These are the per-table/figure harnesses from DESIGN.md §8; run
// `go run ./cmd/experiments` for the full grids and the rendered tables.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for _, e := range experiments.All() {
		if e.ID != id {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Run(experiments.Opts{Quick: true})
		}
		return
	}
	b.Fatalf("unknown experiment %s", id)
}

func BenchmarkE1PerStageBits(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2TotalComplexity(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3WorstCaseDiagnosis(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4ScalingInN(b *testing.B)         { benchExperiment(b, "E4") }
func BenchmarkE5DSweep(b *testing.B)             { benchExperiment(b, "E5") }
func BenchmarkE6VsNaive(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7FH06Error(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8VsFitziHirt(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9Broadcast(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10BSBCost(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11HighResilience(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12RoundComplexity(b *testing.B)   { benchExperiment(b, "E12") }

// BenchmarkConsensus measures wall-clock and communication of full runs at
// representative sizes; bits/L is the paper's normalised complexity and
// should sit near n(n-1)/(n-2t) plus the decaying broadcast overhead.
func BenchmarkConsensus(b *testing.B) {
	cases := []struct {
		n, t int
		L    int
	}{
		{4, 1, 10_000}, {7, 2, 10_000}, {7, 2, 100_000},
		{10, 3, 100_000}, {16, 5, 100_000}, {16, 5, 1_000_000},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("n%d_t%d_L%d", tc.n, tc.t, tc.L)
		b.Run(name, func(b *testing.B) {
			val := make([]byte, (tc.L+7)/8)
			for i := range val {
				val[i] = byte(i)
			}
			inputs := make([][]byte, tc.n)
			for i := range inputs {
				inputs[i] = val
			}
			cfg := byzcons.Config{N: tc.n, T: tc.t, SymBits: 8}
			var bits int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := byzcons.Consensus(cfg, inputs, tc.L, byzcons.Scenario{})
				if err != nil {
					b.Fatal(err)
				}
				bits = res.Bits
			}
			b.ReportMetric(float64(bits)/float64(tc.L), "bits/L")
			b.ReportMetric(float64(bits), "bits")
		})
	}
}

// BenchmarkConsensusUnderAttack measures the overhead an active adversary
// can impose (diagnosis stages are the expensive path it can force).
func BenchmarkConsensusUnderAttack(b *testing.B) {
	const n, t, L = 7, 2, 50_000
	val := make([]byte, L/8)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	for _, tc := range []struct {
		name string
		sc   byzcons.Scenario
	}{
		{"failfree", byzcons.Scenario{}},
		{"equivocator", byzcons.Scenario{Faulty: []int{0, 1}, Behavior: byzcons.Equivocator{Victims: []int{6}}}},
		{"edgemiser", byzcons.Scenario{Faulty: []int{0, 1}, Behavior: byzcons.EdgeMiser{T: t}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := byzcons.Config{N: n, T: t, SymBits: 8, Seed: 1}
			var bits int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := byzcons.Consensus(cfg, inputs, L, tc.sc)
				if err != nil {
					b.Fatal(err)
				}
				bits = res.Bits
			}
			b.ReportMetric(float64(bits), "bits")
		})
	}
}

// BenchmarkBroadcastKinds compares full consensus runs over the three
// Broadcast_Single_Bit substrates at EIG/phase-king-compatible sizes.
func BenchmarkBroadcastKinds(b *testing.B) {
	const n, t, L = 7, 1, 10_000
	val := make([]byte, L/8)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	for _, kind := range []byzcons.BroadcastKind{byzcons.BroadcastOracle, byzcons.BroadcastEIG, byzcons.BroadcastPhaseKing} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := byzcons.Config{N: n, T: t, SymBits: 8, Broadcast: kind}
			var bits int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := byzcons.Consensus(cfg, inputs, L, byzcons.Scenario{})
				if err != nil {
					b.Fatal(err)
				}
				bits = res.Bits
			}
			b.ReportMetric(float64(bits)/float64(L), "bits/L")
		})
	}
}

// BenchmarkSessionAmortization measures the tentpole batching claim: at
// fixed n and t, amortized communication bits per proposed value fall
// toward the paper's O(n) per-bit bound as the batch size grows, because one
// long L-bit input shares each generation's Broadcast_Single_Bit overhead
// among all values of the batch. The bits/value metric is the one to watch.
func BenchmarkSessionAmortization(b *testing.B) {
	const workload, valBytes = 64, 64
	for _, batch := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			var bits int64
			for i := 0; i < b.N; i++ {
				s, err := byzcons.Open(byzcons.SessionConfig{
					Config:      byzcons.Config{N: 7, T: 2, Seed: 1},
					BatchValues: batch,
					Instances:   4,
					Policy:      manualPolicy(),
				})
				if err != nil {
					b.Fatal(err)
				}
				pendings := make([]*byzcons.Pending, workload)
				val := make([]byte, valBytes)
				for j := range pendings {
					val[0] = byte(j)
					if pendings[j], err = s.ProposeAsync(context.Background(), val); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Drain(context.Background()); err != nil {
					b.Fatal(err)
				}
				for _, p := range pendings {
					if d := p.Wait(context.Background()); d.Err != nil {
						b.Fatal(d.Err)
					}
				}
				bits = s.Stats().Bits
				s.Close()
			}
			b.ReportMetric(float64(bits)/workload, "bits/value")
			b.ReportMetric(float64(workload)*float64(b.N)/b.Elapsed().Seconds(), "values/s")
		})
	}
}

// BenchmarkSessionPipelining compares wall-clock and round counts of the
// same workload run with 1 to 8 batches per cycle: more batches make fewer,
// longer runs whose generations are as many times wider.
func BenchmarkSessionPipelining(b *testing.B) {
	const workload, batch = 32, 4
	for _, instances := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("instances%d", instances), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				s, err := byzcons.Open(byzcons.SessionConfig{
					Config:      byzcons.Config{N: 7, T: 2, Seed: 1},
					BatchValues: batch,
					Instances:   instances,
					Policy:      manualPolicy(),
				})
				if err != nil {
					b.Fatal(err)
				}
				pendings := make([]*byzcons.Pending, workload)
				val := make([]byte, 64)
				for j := range pendings {
					if pendings[j], err = s.ProposeAsync(context.Background(), val); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Drain(context.Background()); err != nil {
					b.Fatal(err)
				}
				for _, p := range pendings {
					if d := p.Wait(context.Background()); d.Err != nil {
						b.Fatal(d.Err)
					}
				}
				rounds = s.Stats().Rounds
				s.Close()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkBaselines runs the two comparison protocols at a common size.
func BenchmarkBaselines(b *testing.B) {
	const n, t, L = 7, 2, 100_000
	val := make([]byte, L/8)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	b.Run("ours", func(b *testing.B) {
		cfg := byzcons.Config{N: n, T: t}
		for i := 0; i < b.N; i++ {
			if _, err := byzcons.Consensus(cfg, inputs, L, byzcons.Scenario{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fitzihirt", func(b *testing.B) {
		cfg := byzcons.FHConfig{N: n, T: t, Kappa: 16}
		for i := 0; i < b.N; i++ {
			if _, err := byzcons.FitziHirt(cfg, inputs, L, byzcons.Scenario{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		cfg := byzcons.NaiveConfig{N: n, T: t}
		for i := 0; i < b.N; i++ {
			if _, err := byzcons.NaiveBitwise(cfg, inputs, L, byzcons.Scenario{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mvbroadcast", func(b *testing.B) {
		cfg := byzcons.Config{N: n, T: t}
		for i := 0; i < b.N; i++ {
			if _, err := byzcons.Broadcast(cfg, 0, val, L, byzcons.Scenario{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
