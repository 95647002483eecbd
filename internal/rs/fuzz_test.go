package rs

import (
	"testing"

	"byzcons/internal/gf"
)

// FuzzDecodeRoundTrip fuzzes the encode → subset → decode pipeline: for any
// data and any subset selector, decoding any >= K positions of a codeword
// must return the original data, and corrupting one selected symbol must
// never yield a *different* successful decode when more than K positions are
// present (detection), matching the checking stage's requirements.
func FuzzDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(0x1F), uint8(0))
	f.Add([]byte{0xFF, 0x00, 0xAA, 0x55}, uint8(0x7F), uint8(3))
	f.Add([]byte{9}, uint8(0xFF), uint8(200))
	f.Fuzz(func(t *testing.T, raw []byte, mask uint8, corrupt uint8) {
		field, err := gf.New(8)
		if err != nil {
			t.Fatal(err)
		}
		const n, k = 7, 3
		code, err := New(field, n, k)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]gf.Sym, k)
		for i := range data {
			if i < len(raw) {
				data[i] = gf.Sym(raw[i])
			}
		}
		cw := code.Encode(data)

		var pos []int
		var vals []gf.Sym
		for j := 0; j < n; j++ {
			if mask>>uint(j)&1 == 1 {
				pos = append(pos, j)
				vals = append(vals, cw[j])
			}
		}
		if len(pos) < k {
			if _, err := code.Decode(pos, vals); err != ErrTooFew {
				t.Fatalf("want ErrTooFew, got %v", err)
			}
			return
		}
		got, err := code.Decode(pos, vals)
		if err != nil {
			t.Fatalf("clean decode failed: %v", err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatal("round trip mismatch")
			}
		}

		// Single-symbol corruption: with > K positions it must be detected;
		// with exactly K it must decode to something (dimension-K freedom).
		delta := gf.Sym(corrupt)
		if delta == 0 {
			delta = 1
		}
		bad := int(corrupt) % len(pos)
		vals[bad] ^= delta
		if len(pos) > k {
			if code.Consistent(pos, vals) {
				t.Fatal("corruption not detected with surplus positions")
			}
		} else if !code.Consistent(pos, vals) {
			t.Fatal("exactly-K positions must always be consistent")
		}
	})
}

// FuzzInterleavedRoundTrip fuzzes the interleaved code the consensus
// generations ride on: for any data and any erasure pattern, decoding from
// any >= K surviving positions must return the original K*M data symbols
// (erasures model the symbols an honest processor never received from
// untrusted or silent senders), fewer than K survivors must fail with
// ErrTooFew, and a single corrupted lane symbol must be detected whenever
// surplus positions are present.
func FuzzInterleavedRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(0x1F), uint8(1), uint8(0))
	f.Add([]byte{0xFF, 0x00, 0xAA}, uint8(0x55), uint8(3), uint8(9))
	f.Add([]byte{}, uint8(0x07), uint8(2), uint8(100))
	f.Add([]byte{4, 4, 4, 4, 4, 4, 4, 4}, uint8(0x6D), uint8(7), uint8(31))
	f.Fuzz(func(t *testing.T, raw []byte, mask uint8, lanesSeed uint8, corrupt uint8) {
		field, err := gf.New(8)
		if err != nil {
			t.Fatal(err)
		}
		const n, k = 7, 3
		code, err := New(field, n, k)
		if err != nil {
			t.Fatal(err)
		}
		m := int(lanesSeed%8) + 1
		ic, err := NewInterleaved(code, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]gf.Sym, ic.DataSyms())
		for i := range data {
			if i < len(raw) {
				data[i] = gf.Sym(raw[i])
			}
		}
		words := ic.Encode(data)

		// The words must be views over one contiguous position-major stripe,
		// and EncodeBlock into a caller buffer must reproduce it exactly.
		stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
		for j := 0; j < n; j++ {
			for l := 0; l < m; l++ {
				if words[j][l] != stripe[j*m+l] {
					t.Fatalf("Encode/EncodeBlock disagree at word %d lane %d", j, l)
				}
			}
		}

		// The mask selects the surviving positions; the rest are erased.
		var pos []int
		var surv [][]gf.Sym
		for j := 0; j < n; j++ {
			if mask>>uint(j)&1 == 1 {
				pos = append(pos, j)
				surv = append(surv, words[j])
			}
		}
		if len(pos) < k {
			if _, err := ic.Decode(pos, surv); err != ErrTooFew {
				t.Fatalf("want ErrTooFew with %d survivors, got %v", len(pos), err)
			}
			return
		}
		got, err := ic.Decode(pos, surv)
		if err != nil {
			t.Fatalf("decode with %d erasures failed: %v", n-len(pos), err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatal("interleaved round trip mismatch")
			}
		}
		into := make([]gf.Sym, ic.DataSyms())
		if err := ic.DecodeInto(pos, surv, into); err != nil {
			t.Fatalf("DecodeInto failed where Decode succeeded: %v", err)
		}
		for i := range data {
			if into[i] != data[i] {
				t.Fatal("DecodeInto round trip mismatch")
			}
		}
		if !ic.Consistent(pos, surv) {
			t.Fatal("clean survivors reported inconsistent")
		}

		// Corrupt one lane symbol of one surviving word (copy first: words
		// share Encode's backing array).
		delta := gf.Sym(corrupt)
		if delta == 0 {
			delta = 1
		}
		bad := int(corrupt) % len(pos)
		tampered := append([]gf.Sym(nil), surv[bad]...)
		tampered[int(corrupt/8)%m] ^= delta
		surv[bad] = tampered
		if len(pos) > k {
			if ic.Consistent(pos, surv) {
				t.Fatal("corrupted lane not detected with surplus positions")
			}
		} else if !ic.Consistent(pos, surv) {
			t.Fatal("exactly-K positions must always be consistent")
		}
	})
}

// FuzzMatrixVsScalar fuzzes the matrix-form fast path against the scalar
// log/exp reference across field widths, lane counts, erasure patterns and
// corruptions: EncodeBlock must equal the per-lane scalar encode, and
// DecodeInto/Consistent must agree with the scalar decode — same data, same
// error — on both clean and corrupted stripes.
func FuzzMatrixVsScalar(f *testing.F) {
	f.Add(uint8(8), uint8(3), uint8(0x1F), uint8(0), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(16), uint8(2), uint8(0x2D), uint8(9), []byte{0xFF, 0, 0xAA})
	f.Add(uint8(4), uint8(1), uint8(0x7F), uint8(77), []byte{})
	f.Add(uint8(11), uint8(4), uint8(0x3B), uint8(200), []byte{7, 7, 7, 7})
	f.Add(uint8(5), uint8(18), uint8(0x5D), uint8(41), []byte{9, 0, 3}) // 19 lanes: word tier, ragged tail
	f.Add(uint8(13), uint8(16), uint8(0x6B), uint8(5), []byte{1, 2, 3}) // 17 lanes, c > 8 half-word packing
	f.Fuzz(func(t *testing.T, cRaw, lanesRaw, mask, corrupt uint8, raw []byte) {
		c := uint(cRaw)%14 + 3 // field widths 3..16 (n=7 needs order > 7)
		field, err := gf.New(c)
		if err != nil {
			t.Fatal(err)
		}
		const n, k = 7, 3
		code, err := New(field, n, k)
		if err != nil {
			t.Fatal(err)
		}
		// 1..37 lanes, including counts that straddle a packed-word
		// boundary, all on the word-sliced matrix path of word.go.
		m := int(lanesRaw%37) + 1
		ic, err := NewInterleaved(code, m)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]gf.Sym, ic.DataSyms())
		for i := range data {
			if i < len(raw) {
				data[i] = gf.Sym(int(raw[i]) % field.Order())
			}
		}

		// Matrix encode == scalar encode, stripe for stripe.
		stripe := ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms()))
		ref := make([]gf.Sym, n*m)
		ic.encodeScalar(data, ref)
		for i := range stripe {
			if stripe[i] != ref[i] {
				t.Fatalf("c=%d m=%d: encode stripe[%d] = %#x, scalar %#x", c, m, i, stripe[i], ref[i])
			}
		}

		var pos []int
		var surv [][]gf.Sym
		for j := 0; j < n; j++ {
			if mask>>uint(j)&1 == 1 {
				pos = append(pos, j)
				surv = append(surv, stripe[j*m:(j+1)*m])
			}
		}
		if len(pos) < k {
			return
		}
		check := func(stage string) {
			t.Helper()
			got := make([]gf.Sym, ic.DataSyms())
			errMatrix := ic.DecodeInto(pos, surv, got)
			want := make([]gf.Sym, ic.DataSyms())
			errScalar := ic.decodeIntoScalar(pos, surv, want)
			if (errMatrix == nil) != (errScalar == nil) {
				t.Fatalf("c=%d m=%d %s: matrix err %v, scalar err %v", c, m, stage, errMatrix, errScalar)
			}
			if errMatrix == nil {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("c=%d m=%d %s: decode[%d] = %#x, scalar %#x", c, m, stage, i, got[i], want[i])
					}
				}
			}
			if ic.Consistent(pos, surv) != (errScalar == nil) {
				t.Fatalf("c=%d m=%d %s: Consistent disagrees with scalar decode", c, m, stage)
			}
		}
		check("clean")

		// Corrupt one lane symbol of one surviving word and re-compare.
		delta := gf.Sym(int(corrupt)%(field.Order()-1)) + 1
		bad := int(corrupt) % len(pos)
		tampered := append([]gf.Sym(nil), surv[bad]...)
		tampered[int(corrupt/8)%m] ^= delta
		surv[bad] = tampered
		check("corrupted")
	})
}

// FuzzCorrectErrors fuzzes the Berlekamp-Welch decoder within its radius.
func FuzzCorrectErrors(f *testing.F) {
	f.Add([]byte{1, 2}, uint16(0x035A))
	f.Add([]byte{0xF0}, uint16(0xFFFF))
	f.Fuzz(func(t *testing.T, raw []byte, noise uint16) {
		field, err := gf.New(8)
		if err != nil {
			t.Fatal(err)
		}
		const n, k, m = 10, 2, 8 // corrects up to 3 errors
		code, err := New(field, n, k)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]gf.Sym, k)
		for i := range data {
			if i < len(raw) {
				data[i] = gf.Sym(raw[i])
			}
		}
		cw := code.Encode(data)
		pos := make([]int, m)
		vals := make([]gf.Sym, m)
		for i := 0; i < m; i++ {
			pos[i] = i
			vals[i] = cw[i]
		}
		// Corrupt up to (m-k)/2 = 3 positions chosen by the noise bits.
		errs := 0
		for i := 0; i < m && errs < (m-k)/2; i++ {
			if noise>>uint(i)&1 == 1 {
				vals[i] ^= gf.Sym(noise>>8) | 1
				errs++
			}
		}
		got, err := code.CorrectErrors(pos, vals)
		if err != nil {
			t.Fatalf("within-radius correction failed (%d errors): %v", errs, err)
		}
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("wrong correction with %d errors", errs)
			}
		}
	})
}
