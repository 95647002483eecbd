package gf

import (
	"math/rand"
	"testing"
)

// wordMulViaPack runs the word tier end to end over a []Sym slice: pack,
// sweep, unpack. xor selects MulWordsXor (dst pre-loaded) vs MulWords.
func wordMulViaPack(t *testing.T, f *Field, tab WordTab, src, dst []Sym, xor bool) {
	t.Helper()
	c := f.C()
	mw := PackedLen(c, len(src))
	ps := make([]uint64, mw)
	pd := make([]uint64, mw)
	Pack(c, src, ps)
	if xor {
		Pack(c, dst[:len(src)], pd)
		tab.MulWordsXor(ps, pd)
	} else {
		tab.MulWords(ps, pd)
	}
	Unpack(c, pd, dst[:len(src)])
}

// TestWordKernelsAllWidths cross-checks every word-kernel variant against
// the scalar field operations for every width, over misaligned sub-slices.
func TestWordKernelsAllWidths(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for c := uint(1); c <= 16; c++ {
		f, err := New(c)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		for trial := 0; trial < 8; trial++ {
			y := Sym(rng.Intn(f.Order()))
			tab := f.WordTabFull(y)
			n := 1 + rng.Intn(70)
			head := rng.Intn(3)
			back := make([]Sym, head+n)
			for i := range back {
				back[i] = Sym(rng.Intn(f.Order()))
			}
			src := back[head:]
			acc0 := make([]Sym, n)
			for i := range acc0 {
				acc0[i] = Sym(rng.Intn(f.Order()))
			}
			for _, xor := range []bool{false, true} {
				got := append([]Sym(nil), acc0...)
				wordMulViaPack(t, f, tab, src, got, xor)
				for i, s := range src {
					want := f.Mul(y, s)
					if xor {
						want ^= acc0[i]
					}
					if got[i] != want {
						t.Fatalf("c=%d xor=%v y=%#x src[%d]=%#x: got %#x want %#x",
							c, xor, y, i, s, got[i], want)
					}
				}
			}
			// AddWords against the scalar Add.
			mw := PackedLen(c, n)
			pa := make([]uint64, mw)
			pb := make([]uint64, mw)
			Pack(c, src, pa)
			Pack(c, acc0, pb)
			AddWords(pa, pb)
			got := make([]Sym, n)
			Unpack(c, pb, got)
			for i := range got {
				if want := f.Add(src[i], acc0[i]); got[i] != want {
					t.Fatalf("c=%d AddWords[%d]: got %#x want %#x", c, i, got[i], want)
				}
			}
		}
	}
}

// TestPackRoundTripTailPadding pins the layout contract: the packed tail
// word is zero past the last symbol, and Unpack restores exactly the
// original slice for every residue of len mod syms-per-word.
func TestPackRoundTripTailPadding(t *testing.T) {
	t.Parallel()
	for _, c := range []uint{3, 8, 11, 16} {
		f, _ := New(c)
		spw := SymsPerWord(c)
		for n := 1; n <= 3*spw+1; n++ {
			src := make([]Sym, n)
			for i := range src {
				src[i] = Sym((i*31 + 7) % f.Order())
			}
			words := make([]uint64, PackedLen(c, n))
			for i := range words {
				words[i] = ^uint64(0) // Pack must overwrite, including padding
			}
			Pack(c, src, words)
			if rem := n % spw; rem != 0 {
				last := words[len(words)-1]
				bits := uint(16)
				if c <= 8 {
					bits = 8
				}
				if pad := last >> (uint(rem) * bits); pad != 0 {
					t.Fatalf("c=%d n=%d: tail padding not zero: %#x", c, n, pad)
				}
			}
			got := make([]Sym, n)
			Unpack(c, words, got)
			for i := range got {
				if got[i] != src[i] {
					t.Fatalf("c=%d n=%d: roundtrip[%d] = %#x, want %#x", c, n, i, got[i], src[i])
				}
			}
		}
	}
}

// FuzzWordVsScalar cross-checks the word tier against the scalar oracle for
// all c in [1,16], with fuzz-chosen slice lengths and misaligned heads and
// tails (the packed pipeline must agree with the scalar sweep whatever the
// sub-slice offsets of the symbol data are).
func FuzzWordVsScalar(f *testing.F) {
	f.Add(uint(8), uint16(0x35), []byte("hello word kernels"), 0, 0)
	f.Add(uint(16), uint16(0x1234), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1)
	f.Add(uint(3), uint16(5), []byte{0xFF, 0x00, 0x7}, 2, 0)
	f.Add(uint(12), uint16(0xABC), []byte("misaligned heads and tails"), 3, 2)
	f.Fuzz(func(t *testing.T, c uint, yRaw uint16, raw []byte, head, tail int) {
		if c < 1 || c > 16 {
			t.Skip()
		}
		fld, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		y := Sym(int(yRaw) % fld.Order())
		head = head & 7
		tail = tail & 7
		syms := make([]Sym, len(raw))
		for i, b := range raw {
			syms[i] = Sym(int(b) % fld.Order())
		}
		if head+tail >= len(syms) {
			t.Skip()
		}
		src := syms[head : len(syms)-tail]
		n := len(src)
		acc := make([]Sym, n)
		for i := range acc {
			acc[i] = Sym((i * 13) % fld.Order())
		}
		tab := fld.WordTabFull(y)
		for _, xor := range []bool{false, true} {
			got := append([]Sym(nil), acc...)
			wordMulViaPack(t, fld, tab, src, got, xor)
			for i, s := range src {
				want := fld.Mul(y, s)
				if xor {
					want = fld.Add(want, acc[i])
				}
				if got[i] != want {
					t.Fatalf("c=%d xor=%v y=%#x i=%d: word %#x != scalar %#x",
						c, xor, y, i, got[i], want)
				}
			}
		}
	})
}

func BenchmarkMulWordsXor(b *testing.B) {
	f, _ := New(8)
	const n = 4096
	src := make([]Sym, n)
	dst := make([]Sym, n)
	for i := range src {
		src[i] = Sym(i % 256)
	}
	ps := make([]uint64, PackedLen(8, n))
	pd := make([]uint64, PackedLen(8, n))
	Pack(8, src, ps)
	Pack(8, dst, pd)
	b.Run("word-full", func(b *testing.B) {
		tab := f.WordTabFull(0x35)
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			tab.MulWordsXor(ps, pd)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			for j, s := range src {
				dst[j] ^= f.Mul(0x35, s)
			}
		}
	})
}
