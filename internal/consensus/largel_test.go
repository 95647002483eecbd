package consensus

import (
	"bytes"
	"sync"
	"testing"

	"byzcons/internal/sim"
)

// The large-L shape: n=16, t=5, oracle broadcaster, one instance carrying the
// packed form of 16 values of 16 KiB (a count byte, then a 3-byte length and
// the value bytes for each) — about 2 Mbit, ~680 generations at the optimal
// D of Eq. 2.
const (
	largeN, largeT = 16, 5
	largeBytes     = 1 + 16*(3+16<<10)
)

func largeInput() []byte {
	val := make([]byte, largeBytes)
	for i := range val {
		val[i] = byte(i*131 + i>>9)
	}
	return val
}

// runLarge executes one fault-free run at the large-L shape and returns
// processor 0's output.
func runLarge(tb testing.TB, val []byte) *Output {
	res := sim.Run(sim.RunConfig{N: largeN, Seed: 1}, func(p *sim.Proc) any {
		return Run(p, Params{N: largeN, T: largeT}, val, len(val)*8)
	})
	if res.Err != nil {
		tb.Fatal(res.Err)
	}
	return res.Values[0].(*Output)
}

// poolDropsItems reports whether sync.Pool loses items put into it, as it does
// on purpose under the race detector; the generation scratch pool then
// refills at random and allocation counts are not deterministic.
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

// TestRunLargeLAllocs bounds the heap allocations of a fault-free generation
// at the large-L shape, summed over all 16 processors and the simulator's
// barrier. A per-generation rebuild of the match-stage bookkeeping or a
// per-symbol output buffer shows up here as a step of tens per generation.
func TestRunLargeLAllocs(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool drops items at random (race detector): allocation counts are not deterministic")
	}
	// Measured: 257, i.e. ~16 per processor — the encoded stripe, the boxed
	// outgoing word, broadcast contributions and the barrier's deliveries.
	// The budget admits no extra allocation per processor per generation.
	const budget = 264
	val := largeInput()
	var gens int
	allocs := testing.AllocsPerRun(2, func() {
		out := runLarge(t, val)
		if !bytes.Equal(out.Value, val) {
			t.Fatal("decided value differs from the common input")
		}
		gens = out.Generations
	})
	perGen := allocs / float64(gens)
	t.Logf("%d generations: %.0f allocs/run, %.1f per generation", gens, allocs, perGen)
	if perGen > budget {
		t.Errorf("%.1f allocations per generation, budget %d", perGen, budget)
	}
}

// BenchmarkRunLargeL runs one fault-free 2 Mbit instance per iteration at
// the large-L shape, the consensus-only share of a large-value cycle.
func BenchmarkRunLargeL(b *testing.B) {
	val := largeInput()
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	for b.Loop() {
		runLarge(b, val)
	}
}
