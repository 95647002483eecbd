package consensus

import (
	"bytes"
	"slices"
	"testing"

	"byzcons/internal/bitio"
	"byzcons/internal/gf"
	"byzcons/internal/sim"
)

// symioLanes keeps FuzzRunSymbolIO's generations small (D = (n-2t)·2·c),
// so a fuzzed length spans several of them.
const symioLanes = 2

// symioPar is the fault-free shape of one FuzzRunSymbolIO case.
func symioPar(n7, wide bool) Params {
	par := Params{N: 4, T: 1, Lanes: symioLanes, SymBits: 8}
	if n7 {
		par.N, par.T = 7, 2
	}
	if wide {
		par.SymBits = 16
	}
	return par
}

// FuzzRunSymbolIO checks Run's byte-aligned symbol path against the
// bit-stream definition of a value: every generation reads exactly the
// symbols a bitio.Reader produces from the packed input (zeros past its
// end), the decided value is the input with the bits past L cleared, and
// differing inputs still decide the default, cut to L bits.
func FuzzRunSymbolIO(f *testing.F) {
	for _, n7 := range []bool{false, true} {
		for _, wide := range []bool{false, true} {
			D := symioPar(n7, wide).D()
			for _, L := range []int{1, 7, 8, 9, D - 1, D, D + 1, 3*D + 5} {
				long := make([]byte, (L+7)/8+1) // one byte past L
				for i := range long {
					long[i] = byte(0xA5 ^ i*29)
				}
				f.Add(long, L, wide, n7)
				f.Add(long[:len(long)/2], L, wide, n7) // zero-padded tail
			}
		}
	}
	f.Fuzz(func(t *testing.T, value []byte, L int, wide, n7 bool) {
		par := symioPar(n7, wide)
		D := par.D()
		L = 1 + int(uint(L-1)%uint(4*D))
		if len(value) > L/8+8 {
			value = value[:L/8+8]
		}

		// Every generation's data symbols, against the bit-stream reader.
		gens := (L + D - 1) / D
		c := par.SymBits
		ref := bitio.NewReader(value)
		data := make([]gf.Sym, D/int(c))
		for g := 0; g < gens; g++ {
			readGen(data, value, g, c)
			for i, s := range data {
				if want := gf.Sym(ref.Read(c)); s != want {
					t.Fatalf("L=%d c=%d g%d: symbol %d = %#x, bit stream reads %#x", L, c, g, i, s, want)
				}
			}
		}

		// All-equal inputs decide the input, cut to L bits.
		want := make([]byte, (L+7)/8)
		copy(want, value)
		if rem := L % 8; rem != 0 {
			want[len(want)-1] &= byte(0xFF << (8 - rem))
		}
		res := sim.Run(sim.RunConfig{N: par.N, Seed: 1}, func(p *sim.Proc) any {
			return Run(p, par, value, L)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for i, v := range res.Values {
			if o := v.(*Output); o.Defaulted || !bytes.Equal(o.Value, want) {
				t.Fatalf("L=%d c=%d n=%d: processor %d decided %x (defaulted=%v), want %x", L, c, par.N, i, o.Value, o.Defaulted, want)
			}
		}

		// Pairwise-different inputs have no Pmatch: the default, cut to L
		// bits by the bit-stream writer.
		par.Default = slices.Clone(value)
		slices.Reverse(par.Default)
		w, r := bitio.NewWriter(), bitio.NewReader(par.Default)
		for w.Bits() < L {
			width := uint(min(8, L-w.Bits()))
			w.Write(r.Read(width), width)
		}
		wantDef := w.Truncate(L)
		res = sim.Run(sim.RunConfig{N: par.N, Seed: 1}, func(p *sim.Proc) any {
			in := make([]byte, max(len(value), (L+7)/8))
			copy(in, value)
			in[0] ^= 0x80 | byte(p.ID)
			return Run(p, par, in, L)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for i, v := range res.Values {
			if o := v.(*Output); !o.Defaulted || !bytes.Equal(o.Value, wantDef) {
				t.Fatalf("L=%d c=%d n=%d: processor %d decided %x (defaulted=%v) on differing inputs, want the default %x", L, c, par.N, i, o.Value, o.Defaulted, wantDef)
			}
		}
	})
}
