package byzcons_test

import (
	"context"
	"fmt"
	"testing"

	"byzcons"
)

// BenchmarkTransportThroughput pushes a batched workload through the two
// networked backends at n=4 and n=7: 32 client values of 64 bytes per
// iteration, coalesced 8 per batch, 2 batches per cycle run as one
// consensus input. Each backend runs in two modes:
//
//   - fresh: a new Session per iteration — every iteration pays the full
//     mesh dial (the per-flush TCP handshake tax the persistent mesh
//     removed);
//   - reuse: one Session for the whole benchmark — the mesh is dialed once
//     and every iteration is a pure flush cycle over it.
//
// The gap between fresh and reuse at n=7/tcp is the per-flush connection
// setup cost that the pre-Session API paid on every Flush. Reported metrics:
// decided values per second and encoded on-wire bytes per value.
func BenchmarkTransportThroughput(b *testing.B) {
	const values, valBytes = 32, 64
	ctx := context.Background()

	workload := func(b *testing.B, s *byzcons.Session) {
		b.Helper()
		pendings := make([]*byzcons.Pending, values)
		var err error
		for v := range pendings {
			val := make([]byte, valBytes)
			for j := range val {
				val[j] = byte(v + j)
			}
			if pendings[v], err = s.ProposeAsync(ctx, val); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Drain(ctx); err != nil {
			b.Fatal(err)
		}
		for _, p := range pendings {
			if d := p.Wait(ctx); d.Err != nil {
				b.Fatal(d.Err)
			}
		}
	}
	open := func(b *testing.B, tk byzcons.TransportKind, n, t int, seed int64) *byzcons.Session {
		b.Helper()
		s, err := byzcons.Open(byzcons.SessionConfig{
			Config:      byzcons.Config{N: n, T: t, Seed: seed},
			Transport:   tk,
			BatchValues: 8,
			Instances:   2,
			Policy:      byzcons.FlushPolicy{MaxValues: -1, MaxDelay: -1},
		})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}

	for _, tk := range []byzcons.TransportKind{byzcons.TransportBus, byzcons.TransportTCP} {
		for _, size := range []struct{ n, t int }{{4, 1}, {7, 2}} {
			b.Run(fmt.Sprintf("%v/n=%d/fresh", tk, size.n), func(b *testing.B) {
				var wirePerValue float64
				for i := 0; i < b.N; i++ {
					s := open(b, tk, size.n, size.t, int64(i+1))
					workload(b, s)
					wirePerValue = float64(s.WireStats().BytesSent) / values
					s.Close()
				}
				b.ReportMetric(float64(values*b.N)/b.Elapsed().Seconds(), "values/sec")
				b.ReportMetric(wirePerValue, "wireB/value")
			})
			b.Run(fmt.Sprintf("%v/n=%d/reuse", tk, size.n), func(b *testing.B) {
				s := open(b, tk, size.n, size.t, 1)
				defer s.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					workload(b, s)
				}
				b.ReportMetric(float64(values*b.N)/b.Elapsed().Seconds(), "values/sec")
				b.ReportMetric(float64(s.WireStats().BytesSent)/float64(values*b.N), "wireB/value")
				if dials := s.MeshDials(); dials != 1 {
					b.Fatalf("reuse mode dialed the mesh %d times", dials)
				}
			})
		}
	}
}
