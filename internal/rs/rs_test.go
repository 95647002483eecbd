package rs

import (
	"errors"
	"math/rand"
	"testing"

	"byzcons/internal/gf"
)

func newCode(t testing.TB, c uint, n, k int) *Code {
	t.Helper()
	f, err := gf.New(c)
	if err != nil {
		t.Fatal(err)
	}
	code, err := New(f, n, k)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func randData(r *rand.Rand, f *gf.Field, k int) []gf.Sym {
	d := make([]gf.Sym, k)
	for i := range d {
		d[i] = gf.Sym(r.Intn(f.Order()))
	}
	return d
}

// randSubset returns a random subset of {0..n-1} of the given size, sorted.
func randSubset(r *rand.Rand, n, size int) []int {
	perm := r.Perm(n)[:size]
	// insertion sort (tiny sizes)
	for i := 1; i < len(perm); i++ {
		for j := i; j > 0 && perm[j-1] > perm[j]; j-- {
			perm[j-1], perm[j] = perm[j], perm[j-1]
		}
	}
	return perm
}

func TestNewValidation(t *testing.T) {
	f, _ := gf.New(8)
	if _, err := New(f, 7, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(f, 7, 8); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := New(f, 256, 3); err == nil {
		t.Error("n>2^c-1 accepted")
	}
	if _, err := New(f, 255, 255); err != nil {
		t.Errorf("max-length code rejected: %v", err)
	}
}

func TestEncodeDecodeAnySubset(t *testing.T) {
	// The defining property the consensus proofs rely on: ANY k codeword
	// positions determine the data.
	r := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		c    uint
		n, k int
	}{
		{8, 7, 3}, {8, 10, 4}, {8, 13, 5}, {8, 255, 85}, {16, 40, 14}, {8, 4, 2}, {8, 1, 1},
	} {
		code := newCode(t, tc.c, tc.n, tc.k)
		for trial := 0; trial < 25; trial++ {
			data := randData(r, code.F, tc.k)
			cw := code.Encode(data)
			size := tc.k + r.Intn(tc.n-tc.k+1)
			pos := randSubset(r, tc.n, size)
			vals := make([]gf.Sym, size)
			for i, p := range pos {
				vals[i] = cw[p]
			}
			got, err := code.Decode(pos, vals)
			if err != nil {
				t.Fatalf("(n=%d,k=%d) Decode: %v", tc.n, tc.k, err)
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("(n=%d,k=%d) decode mismatch at %d", tc.n, tc.k, i)
				}
			}
		}
	}
}

func TestDecodeTooFew(t *testing.T) {
	code := newCode(t, 8, 7, 3)
	_, err := code.Decode([]int{0, 1}, []gf.Sym{1, 2})
	if !errors.Is(err, ErrTooFew) {
		t.Errorf("err = %v, want ErrTooFew", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	// With more than k positions, corrupting any single symbol must be
	// detected, no matter which position is corrupted (this is the checking
	// stage's Detected test).
	r := rand.New(rand.NewSource(7))
	code := newCode(t, 8, 7, 3)
	for trial := 0; trial < 200; trial++ {
		data := randData(r, code.F, 3)
		cw := code.Encode(data)
		size := 4 + r.Intn(4) // > k
		pos := randSubset(r, 7, size)
		vals := make([]gf.Sym, size)
		for i, p := range pos {
			vals[i] = cw[p]
		}
		bad := r.Intn(size)
		vals[bad] ^= gf.Sym(1 + r.Intn(254))
		if code.Consistent(pos, vals) {
			t.Fatalf("corruption at position %d of %v not detected", pos[bad], pos)
		}
	}
}

func TestExactlyKAlwaysConsistent(t *testing.T) {
	// Any assignment to k (or fewer) positions extends to a codeword: the
	// code has dimension k, so no detection is possible there.
	r := rand.New(rand.NewSource(9))
	code := newCode(t, 8, 7, 3)
	for trial := 0; trial < 100; trial++ {
		size := 1 + r.Intn(3)
		pos := randSubset(r, 7, size)
		vals := randData(r, code.F, size)
		if !code.Consistent(pos, vals) {
			t.Fatalf("%d arbitrary positions reported inconsistent", size)
		}
	}
}

func TestMinimumDistance(t *testing.T) {
	// Distinct codewords must differ in at least n-k+1 positions (C2t has
	// distance 2t+1 for k = n-2t, which Lemma 2's argument needs).
	r := rand.New(rand.NewSource(11))
	code := newCode(t, 8, 9, 3) // n-k+1 = 7
	for trial := 0; trial < 200; trial++ {
		d1 := randData(r, code.F, 3)
		d2 := randData(r, code.F, 3)
		same := true
		for i := range d1 {
			if d1[i] != d2[i] {
				same = false
			}
		}
		if same {
			continue
		}
		c1, c2 := code.Encode(d1), code.Encode(d2)
		diff := 0
		for i := range c1 {
			if c1[i] != c2[i] {
				diff++
			}
		}
		if diff < code.Distance() {
			t.Fatalf("codewords differ in %d < %d positions", diff, code.Distance())
		}
	}
}

func TestInterpolateMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	code := newCode(t, 16, 20, 6)
	for trial := 0; trial < 50; trial++ {
		data := randData(r, code.F, 6)
		cw := code.Encode(data)
		pos := randSubset(r, 20, 6)
		vals := make([]gf.Sym, 6)
		for i, p := range pos {
			vals[i] = cw[p]
		}
		got := code.Interpolate(pos, vals)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("interpolate mismatch")
			}
		}
	}
}

func TestDecodePanicsOnBadInput(t *testing.T) {
	code := newCode(t, 8, 7, 3)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"dup positions", func() { code.Interpolate([]int{1, 1, 2}, []gf.Sym{0, 0, 0}) }},
		{"out of range", func() { code.Interpolate([]int{0, 1, 9}, []gf.Sym{0, 0, 0}) }},
		{"len mismatch", func() { _, _ = code.Decode([]int{0, 1, 2}, []gf.Sym{0}) }},
		{"encode wrong len", func() { code.Encode([]gf.Sym{1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestInterleavedRoundTrip encodes, decodes from a random subset and runs
// Consistent on a clean and a tampered word set, on the matrix path (n=7)
// and on the scalar fallback of a code longer than maxMatrixN (n=100).
func TestInterleavedRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		n, k  int
		lanes []int
	}{{7, 3, []int{1, 2, 5, 16}}, {100, 34, []int{1, 9}}} {
		n, k := tc.n, tc.k
		code := newCode(t, 8, n, k)
		if matrix := n <= maxMatrixN; (code.encW != nil) != matrix {
			t.Fatalf("n=%d: matrix path %v, want %v", n, code.encW != nil, matrix)
		}
		for _, m := range tc.lanes {
			ic, err := NewInterleaved(code, m)
			if err != nil {
				t.Fatal(err)
			}
			if ic.DataBits() != k*m*8 || ic.WordBits() != m*8 {
				t.Fatalf("n=%d m=%d: wrong bit geometry", n, m)
			}
			data := randData(r, code.F, ic.DataSyms())
			words := ic.Encode(data)
			pos := randSubset(r, n, k+r.Intn(n-k+1))
			sub := make([][]gf.Sym, len(pos))
			for i, p := range pos {
				sub[i] = words[p]
			}
			got, err := ic.Decode(pos, sub)
			if err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			for i := range data {
				if got[i] != data[i] {
					t.Fatalf("n=%d m=%d: mismatch", n, m)
				}
			}
			if !ic.Consistent(pos, sub) {
				t.Fatalf("n=%d m=%d: Consistent rejected a clean word set", n, m)
			}
			if len(pos) == k {
				continue // any K words are consistent
			}
			tampered := append([]gf.Sym(nil), sub[len(sub)-1]...)
			tampered[m-1] ^= 1
			sub[len(sub)-1] = tampered
			if ic.Consistent(pos, sub) {
				t.Fatalf("n=%d m=%d: Consistent missed a tampered word", n, m)
			}
		}
	}
}

func TestInterleavedLaneCorruptionDetected(t *testing.T) {
	// Corrupting any single lane of any word must fail the whole-word
	// consistency check (the M flags AND across lanes).
	r := rand.New(rand.NewSource(19))
	code := newCode(t, 8, 7, 3)
	ic, _ := NewInterleaved(code, 4)
	for trial := 0; trial < 100; trial++ {
		data := randData(r, code.F, ic.DataSyms())
		words := ic.Encode(data)
		pos := randSubset(r, 7, 5)
		sub := make([][]gf.Sym, len(pos))
		for i, p := range pos {
			w := make([]gf.Sym, 4)
			copy(w, words[p])
			sub[i] = w
		}
		sub[r.Intn(5)][r.Intn(4)] ^= 0x2A
		if ic.Consistent(pos, sub) {
			t.Fatal("lane corruption not detected")
		}
	}
}

func TestInterleavedRejectsBadDepth(t *testing.T) {
	code := newCode(t, 8, 7, 3)
	if _, err := NewInterleaved(code, 0); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestWordsEqual(t *testing.T) {
	a := []gf.Sym{1, 2, 3}
	b := []gf.Sym{1, 2, 3}
	c := []gf.Sym{1, 2, 4}
	if !WordsEqual(a, b) || WordsEqual(a, c) || WordsEqual(a, nil) || WordsEqual(nil, a) {
		t.Error("WordsEqual wrong on basic cases")
	}
	if !WordsEqual(nil, nil) {
		t.Error("nil words (⊥) must equal each other")
	}
	if WordsEqual(a, a[:2]) {
		t.Error("length mismatch not detected")
	}
}

func BenchmarkEncode255_85(b *testing.B) {
	code := newCode(b, 8, 255, 85)
	r := rand.New(rand.NewSource(1))
	data := randData(r, code.F, 85)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code.Encode(data)
	}
}

func BenchmarkDecode255_85(b *testing.B) {
	code := newCode(b, 8, 255, 85)
	r := rand.New(rand.NewSource(1))
	data := randData(r, code.F, 85)
	cw := code.Encode(data)
	pos := make([]int, 85)
	vals := make([]gf.Sym, 85)
	for i := range pos {
		pos[i] = i * 3
		vals[i] = cw[i*3]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(pos, vals); err != nil {
			b.Fatal(err)
		}
	}
}
