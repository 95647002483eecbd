package rs

import (
	"math/rand"
	"testing"

	"byzcons/internal/gf"
)

// TestWordPathMatchesScalar runs the word-sliced matrix path across field
// widths and lane counts — including counts that straddle a packed-word
// boundary — and on the codes the workloads run (n=16, k=6 at 64 lanes;
// n=7, k=5 at 19 and 20), and checks encode, decode and the consistency
// test symbol-for-symbol against the scalar per-lane oracle, clean and
// corrupted.
func TestWordPathMatchesScalar(t *testing.T) {
	t.Parallel()
	type shape struct {
		c     uint
		n, k  int
		lanes []int
		pos   []int // K chosen positions, then the surplus rows
	}
	var shapes []shape
	for _, c := range []uint{3, 4, 7, 8, 9, 12, 16} {
		shapes = append(shapes, shape{c, 7, 3, []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100}, []int{0, 2, 3, 5, 6}})
	}
	shapes = append(shapes,
		shape{8, 16, 6, []int{64}, []int{0, 1, 3, 4, 6, 9, 12, 15}},
		shape{8, 7, 5, []int{19, 20}, []int{0, 1, 2, 3, 4, 5, 6}})

	r := rand.New(rand.NewSource(8))
	for _, sh := range shapes {
		c, pos := sh.c, sh.pos
		field, err := gf.New(c)
		if err != nil {
			t.Fatal(err)
		}
		code, err := New(field, sh.n, sh.k)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sh.lanes {
			ic, err := NewInterleaved(code, m)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]gf.Sym, ic.DataSyms())
			for i := range data {
				data[i] = gf.Sym(r.Intn(field.Order()))
			}
			stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
			ref := make([]gf.Sym, sh.n*m)
			ic.encodeScalar(data, ref)
			for i := range stripe {
				if stripe[i] != ref[i] {
					t.Fatalf("c=%d n=%d k=%d m=%d: word encode stripe[%d] = %#x, scalar %#x", c, sh.n, sh.k, m, i, stripe[i], ref[i])
				}
			}

			words := make([][]gf.Sym, len(pos))
			for i, p := range pos {
				words[i] = stripe[p*m : (p+1)*m]
			}
			out := make([]gf.Sym, ic.DataSyms())
			if err := ic.DecodeInto(pos, words, out); err != nil {
				t.Fatalf("c=%d m=%d: word decode: %v", c, m, err)
			}
			for i := range data {
				if out[i] != data[i] {
					t.Fatalf("c=%d m=%d: word decode mismatch at %d", c, m, i)
				}
			}
			if !ic.Consistent(pos, words) {
				t.Fatalf("c=%d m=%d: word consistent rejected a clean stripe", c, m)
			}

			// Corrupt the last lane of a surplus word — the ragged packed
			// tail — and the first lane of a chosen word.
			for _, tc := range []struct{ wi, lane int }{{len(pos) - 1, m - 1}, {1, 0}} {
				tampered := append([]gf.Sym(nil), words[tc.wi]...)
				tampered[tc.lane] ^= 1
				saved := words[tc.wi]
				words[tc.wi] = tampered
				if ic.Consistent(pos, words) {
					t.Fatalf("c=%d m=%d: word consistent missed corruption in word %d lane %d", c, m, tc.wi, tc.lane)
				}
				if err := ic.DecodeInto(pos, words, out); err != ErrInconsistent {
					t.Fatalf("c=%d m=%d: word decode of corrupted stripe: got %v, want ErrInconsistent", c, m, err)
				}
				words[tc.wi] = saved
			}
		}
	}
}

// TestWordPathRaggedStripe runs the word tier on a lane count that is not a
// multiple of the packing factor and checks encode, decode and the tamper
// check against the scalar oracle — the zero-padded final word must stay
// exact.
func TestWordPathRaggedStripe(t *testing.T) {
	t.Parallel()
	field, err := gf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	code, err := New(field, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	const m = 101 // 12 full packed words and a 5-lane tail
	ic, err := NewInterleaved(code, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(88))
	data := make([]gf.Sym, ic.DataSyms())
	for i := range data {
		data[i] = gf.Sym(r.Intn(field.Order()))
	}
	stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
	ref := make([]gf.Sym, 7*m)
	ic.encodeScalar(data, ref)
	for i := range stripe {
		if stripe[i] != ref[i] {
			t.Fatalf("ragged word encode diverges from scalar at %d", i)
		}
	}
	pos := []int{1, 2, 4, 5, 6}
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
			t.Fatalf("ragged word decode mismatch at %d", i)
		}
	}
	tampered := append([]gf.Sym(nil), words[3]...)
	tampered[m-1] ^= 0x40
	words[3] = tampered
	if ic.Consistent(pos, words) {
		t.Fatal("ragged word consistent missed a corrupted lane")
	}
}
