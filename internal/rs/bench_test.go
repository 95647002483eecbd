package rs

import (
	"testing"

	"byzcons/internal/gf"
)

// benchInterleaved builds the n=7, t=2 code of the acceptance scenarios with
// a generation-sized lane count.
func benchInterleaved(b *testing.B, lanes int) (*Interleaved, []gf.Sym) {
	b.Helper()
	field, err := gf.New(8)
	if err != nil {
		b.Fatal(err)
	}
	code, err := New(field, 7, 3)
	if err != nil {
		b.Fatal(err)
	}
	ic, err := NewInterleaved(code, lanes)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]gf.Sym, ic.DataSyms())
	for i := range data {
		data[i] = gf.Sym(i * 37 % 251)
	}
	return ic, data
}

// benchLanes is the lane width of the headline interleaved benchmarks: wide
// enough that the matrix sweeps dominate, matching a large-L generation.
const benchLanes = 512

// BenchmarkInterleavedEncode measures the matching-stage encode of one
// generation (the per-generation hot path of every processor), through the
// allocation-free block entry point.
func BenchmarkInterleavedEncode(b *testing.B) {
	ic, data := benchInterleaved(b, benchLanes)
	block := make([]gf.Sym, ic.BlockSyms())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.EncodeBlock(data, block)
	}
}

// BenchmarkInterleavedDecode measures the checking-stage decode from K+2
// positions, the consistency-check hot path.
func BenchmarkInterleavedDecode(b *testing.B) {
	ic, data := benchInterleaved(b, benchLanes)
	words := ic.Encode(data)
	positions := []int{0, 2, 3, 5, 6}
	sub := make([][]gf.Sym, len(positions))
	for i, p := range positions {
		sub[i] = words[p]
	}
	out := make([]gf.Sym, ic.DataSyms())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ic.DecodeInto(positions, sub, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterleavedConsistent measures the surplus-position membership
// test run by every non-member of Pmatch in every generation.
func BenchmarkInterleavedConsistent(b *testing.B) {
	ic, data := benchInterleaved(b, benchLanes)
	words := ic.Encode(data)
	positions := []int{0, 1, 2, 3, 5, 6}
	sub := make([][]gf.Sym, len(positions))
	for i, p := range positions {
		sub[i] = words[p]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ic.Consistent(positions, sub) {
			b.Fatal("inconsistent")
		}
	}
}

// BenchmarkInterleavedScalarRef keeps the scalar reference path measured, so
// the matrix-vs-scalar ratio stays visible PR over PR.
func BenchmarkInterleavedScalarRef(b *testing.B) {
	ic, data := benchInterleaved(b, benchLanes)
	stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
	words := make([][]gf.Sym, ic.C.N)
	for j := range words {
		words[j] = stripe[j*ic.M : (j+1)*ic.M]
	}
	positions := []int{0, 2, 3, 5, 6}
	sub := make([][]gf.Sym, len(positions))
	for i, p := range positions {
		sub[i] = words[p]
	}
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
