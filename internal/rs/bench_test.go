package rs

import (
	"sync"
	"testing"

	"byzcons/internal/gf"
)

// benchInterleaved builds the GF(2^8) (n, k) code at the given lane count
// with deterministic data.
func benchInterleaved(tb testing.TB, n, k, lanes int) (*Interleaved, []gf.Sym) {
	tb.Helper()
	field, err := gf.New(8)
	if err != nil {
		tb.Fatal(err)
	}
	code, err := New(field, n, k)
	if err != nil {
		tb.Fatal(err)
	}
	ic, err := NewInterleaved(code, lanes)
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]gf.Sym, ic.DataSyms())
	for i := range data {
		data[i] = gf.Sym(i * 37 % 251)
	}
	return ic, data
}

// spread returns size ascending positions spread evenly over [0, n), first
// and last included.
func spread(n, size int) []int {
	pos := make([]int, size)
	for i := range pos {
		pos[i] = (i*(n-1) + size - 2) / (size - 1)
	}
	return pos
}

// wordsAt returns the words of stripe at the given positions.
func wordsAt(ic *Interleaved, stripe []gf.Sym, positions []int) [][]gf.Sym {
	words := make([][]gf.Sym, len(positions))
	for i, p := range positions {
		words[i] = stripe[p*ic.M : (p+1)*ic.M]
	}
	return words
}

// benchLanes is the lane width of a large-L generation at n=7, wide enough
// that the matrix sweeps dominate.
const benchLanes = 512

// benchShapes are the sub-benchmarks of the interleaved operations: the
// code and generation size of each workload (tcp7_small and
// tcp7_rtt1ms_open200 at n=7, k=3, M=16; tcp7_pk_byz at n=7, k=5, M=19;
// sim16_large at n=16, k=6, M=64), a wide stripe and a narrow one.
var benchShapes = []struct {
	name        string
	n, k, lanes int
}{
	{"n7k3M4", 7, 3, 4},
	{"n7k3M16", 7, 3, 16},
	{"n7k5M19", 7, 5, 19},
	{"n16k6M64", 16, 6, 64},
	{"n7k3M512", 7, 3, benchLanes},
}

// BenchmarkInterleavedEncode measures the matching-stage encode of one
// generation (the per-generation hot path of every processor), through the
// allocation-free block entry point.
func BenchmarkInterleavedEncode(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			ic, data := benchInterleaved(b, sh.n, sh.k, sh.lanes)
			block := make([]gf.Sym, ic.BlockSyms())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ic.EncodeBlock(data, block)
			}
		})
	}
}

// BenchmarkInterleavedDecode measures the checking-stage decode from K+2
// positions (all n when n < K+2), the consistency-check hot path.
func BenchmarkInterleavedDecode(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			ic, data := benchInterleaved(b, sh.n, sh.k, sh.lanes)
			positions := spread(sh.n, min(sh.k+2, sh.n))
			sub := wordsAt(ic, ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms())), positions)
			out := make([]gf.Sym, ic.DataSyms())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ic.DecodeInto(positions, sub, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterleavedConsistent measures the surplus-position membership
// test run by every non-member of Pmatch in every generation, over n-1
// positions.
func BenchmarkInterleavedConsistent(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			ic, data := benchInterleaved(b, sh.n, sh.k, sh.lanes)
			positions := spread(sh.n, sh.n-1)
			sub := wordsAt(ic, ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms())), positions)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !ic.Consistent(positions, sub) {
					b.Fatal("inconsistent")
				}
			}
		})
	}
}

// TestInterleavedZeroAllocs pins the coding core's zero steady-state
// allocations: once the subset tables are built and the pools are warm, an
// encode into a caller block, a decode from K+2 positions into a caller
// buffer and a consistency check allocate nothing, at every lane count.
func TestInterleavedZeroAllocs(t *testing.T) {
	if poolDropsItems() {
		t.Skip("sync.Pool drops items at random (race detector): allocation counts are not deterministic")
	}
	for _, m := range []int{1, 7, 16, 64, 512} {
		ic, data := benchInterleaved(t, 7, 3, m)
		block := make([]gf.Sym, ic.BlockSyms())
		positions := spread(7, 5)
		sub := wordsAt(ic, ic.EncodeBlock(data, block), positions)
		out := make([]gf.Sym, ic.DataSyms())
		allocs := testing.AllocsPerRun(100, func() {
			ic.EncodeBlock(data, block)
			if err := ic.DecodeInto(positions, sub, out); err != nil {
				t.Fatal(err)
			}
			if !ic.Consistent(positions, sub) {
				t.Fatal("inconsistent")
			}
		})
		if allocs != 0 {
			t.Errorf("M=%d: %.1f allocations per encode+decode+consistent, want 0", m, allocs)
		}
	}
}

// poolDropsItems reports whether sync.Pool loses items put into it, as it does
// on purpose under the race detector; the scratch pools then refill at random
// and allocation counts are not deterministic.
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

// BenchmarkInterleavedScalarRef keeps the scalar reference path measured, so
// the matrix-vs-scalar ratio stays visible PR over PR.
func BenchmarkInterleavedScalarRef(b *testing.B) {
	ic, data := benchInterleaved(b, 7, 3, benchLanes)
	stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
	positions := spread(7, 5)
	sub := wordsAt(ic, stripe, positions)
	out := make([]gf.Sym, ic.DataSyms())
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ic.encodeScalar(data, stripe)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ic.decodeIntoScalar(positions, sub, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
