package rs

import (
	"math/rand"
	"sync"
	"testing"

	"byzcons/internal/gf"
)

// TestMatrixSymPathMatchesScalar runs a wide stripe (m=100, GF(2^8),
// n=7, k=3) through the matrix path on the position set {0,1,3,4,6} and
// checks its encode/decode/consistent results against the scalar oracle,
// then corrupts the last lane of a chosen word.
func TestMatrixSymPathMatchesScalar(t *testing.T) {
	field, err := gf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	code, err := New(field, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	const m = 100
	ic, err := NewInterleaved(code, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	data := make([]gf.Sym, ic.DataSyms())
	for i := range data {
		data[i] = gf.Sym(r.Intn(field.Order()))
	}
	stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
	ref := make([]gf.Sym, 7*m)
	ic.encodeScalar(data, ref)
	for i := range stripe {
		if stripe[i] != ref[i] {
			t.Fatalf("matrix encode diverges from scalar at %d", i)
		}
	}

	pos := []int{0, 1, 3, 4, 6}
	words := make([][]gf.Sym, len(pos))
	for i, p := range pos {
		words[i] = stripe[p*m : (p+1)*m]
	}
	out := make([]gf.Sym, ic.DataSyms())
	if err := ic.DecodeInto(pos, words, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("matrix decode mismatch at %d", i)
		}
	}
	if !ic.Consistent(pos, words) {
		t.Fatal("matrix consistent rejected a clean stripe")
	}
	tampered := append([]gf.Sym(nil), words[2]...)
	tampered[m-1] ^= 1
	words[2] = tampered
	if ic.Consistent(pos, words) {
		t.Fatal("matrix consistent missed a corrupted lane")
	}
	if err := ic.DecodeInto(pos, words, out); err != ErrInconsistent {
		t.Fatalf("matrix decode of corrupted stripe: got %v, want ErrInconsistent", err)
	}
}

// TestMatrixFallbackUnsorted pins the scalar fallback: unsorted (but valid)
// position lists bypass the subset cache and still decode correctly.
func TestMatrixFallbackUnsorted(t *testing.T) {
	t.Parallel()
	field, err := gf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	code, err := New(field, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewInterleaved(code, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]gf.Sym, ic.DataSyms())
	for i := range data {
		data[i] = gf.Sym(i * 11 % 251)
	}
	words := ic.Encode(data)
	pos := []int{6, 0, 3, 5, 1} // unsorted: must take the scalar path
	sub := make([][]gf.Sym, len(pos))
	for i, p := range pos {
		sub[i] = words[p]
	}
	if st := code.subsetFor(pos); st != nil {
		t.Fatal("unsorted positions must not hit the matrix path")
	}
	got, err := ic.Decode(pos, sub)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("fallback decode mismatch at %d", i)
		}
	}
	if !ic.Consistent(pos, sub) {
		t.Fatal("fallback consistent rejected a clean word set")
	}
}

// TestCodeInterning pins the construction cache: same parameters, same
// instance — the matrix tables amortize across every processor of every run.
func TestCodeInterning(t *testing.T) {
	t.Parallel()
	field, err := gf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(field, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(field, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("New did not intern equal codes")
	}
	c, err := New(field, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct dimensions interned to one code")
	}
}

// TestSubsetCacheConcurrent hammers one shared code from concurrent
// goroutines over many distinct position subsets — the shape of concurrent
// instances sharing the interned code — and checks every result.
// Run under -race this is the flake check for the pooled stripe buffers.
func TestSubsetCacheConcurrent(t *testing.T) {
	t.Parallel()
	field, err := gf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	code, err := New(field, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewInterleaved(code, 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			data := make([]gf.Sym, ic.DataSyms())
			out := make([]gf.Sym, ic.DataSyms())
			block := make([]gf.Sym, ic.BlockSyms())
			for iter := 0; iter < 200; iter++ {
				for i := range data {
					data[i] = gf.Sym(r.Intn(field.Order()))
				}
				stripe := ic.EncodeBlock(data, block)
				var pos []int
				var words [][]gf.Sym
				for j := 0; j < 10; j++ {
					if r.Intn(2) == 0 || 10-j <= 4-len(pos) {
						pos = append(pos, j)
						words = append(words, stripe[j*16:(j+1)*16])
					}
				}
				if err := ic.DecodeInto(pos, words, out); err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				for i := range data {
					if out[i] != data[i] {
						t.Errorf("round trip mismatch at %d", i)
						return
					}
				}
			}
		}(int64(g) * 977)
	}
	wg.Wait()
}
