package rs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"byzcons/internal/gf"
)

// Interleaved is an (N, K) Reed-Solomon code interleaved M ways: a "word" at
// codeword position j is the vector of the j-th symbols of M independent
// codewords ("lanes"). Interleaving lets a consensus generation carry
// D = K*M*c bits while preserving the property that any K positions determine
// all the data, so the paper's D parameter can be tuned freely without
// changing the field.
//
// Layout. Data is lane-major (data[l*K:(l+1)*K] is lane l, matching the
// order generation inputs are read off the bit stream); codewords are stripe
// buffers — one contiguous []gf.Sym of N*M symbols, position-major, where
// stripe[j*M:(j+1)*M] is the word sent to position j. All hot operations run
// matrix-form (matrix.go) as sweeps of the packed word-sliced kernels of
// word.go over the lane slabs, at every lane count, instead of per-lane,
// per-symbol scalar arithmetic. The scalar per-lane path is kept as the
// reference oracle and as the fallback for codes outside the matrix path's
// domain.
type Interleaved struct {
	C *Code
	M int // number of lanes
}

// NewInterleaved wraps code c with m >= 1 lanes.
func NewInterleaved(c *Code, m int) (*Interleaved, error) {
	if m < 1 {
		return nil, fmt.Errorf("rs: interleave depth m=%d < 1", m)
	}
	return &Interleaved{C: c, M: m}, nil
}

// DataSyms returns the number of data symbols per generation, K*M.
func (ic *Interleaved) DataSyms() int { return ic.C.K * ic.M }

// DataBits returns the number of data bits per generation, D = K*M*c.
func (ic *Interleaved) DataBits() int { return ic.C.K * ic.M * int(ic.C.F.C()) }

// WordBits returns the number of bits in one interleaved word, M*c.
func (ic *Interleaved) WordBits() int { return ic.M * int(ic.C.F.C()) }

// symPool recycles scratch symbol slices for the working buffers of the
// interleaved hot paths. The returned words/results escape to callers and
// stay freshly allocated; only buffers whose lifetime ends inside the call
// are pooled, so concurrent instances can share the pool.
var symPool = sync.Pool{New: func() any { return new([]gf.Sym) }}

// getSyms returns a pooled slice of n symbols (contents undefined).
func getSyms(n int) *[]gf.Sym {
	p := symPool.Get().(*[]gf.Sym)
	if cap(*p) < n {
		*p = make([]gf.Sym, n)
	}
	*p = (*p)[:n]
	return p
}

// Encode maps K*M data symbols (lane-major) to N words of M symbols each
// (out[j][l] is lane l's symbol at position j). The returned words are views
// over one freshly allocated stripe; use EncodeBlock to control the buffer.
// The transpose scratch rides in the same allocation as the stripe, so the
// per-generation protocol path stays off the shared pool (whose slots churn
// when many processors interleave).
func (ic *Interleaved) Encode(data []gf.Sym) [][]gf.Sym {
	return ic.StripeWords(ic.EncodeBlock(data, make([]gf.Sym, ic.BlockSyms())))
}

// BlockSyms returns the length of an EncodeBlock buffer: the N*M-symbol
// stripe followed by K*M symbols of transpose scratch.
func (ic *Interleaved) BlockSyms() int { return (ic.C.N + ic.C.K) * ic.M }

// EncodeBlock writes the interleaved codeword into block[:N*M], the
// position-major stripe, using the rest of the BlockSyms-long block as
// transpose scratch, and returns the stripe: the encode that touches neither
// the heap nor the shared pool.
func (ic *Interleaved) EncodeBlock(data, block []gf.Sym) []gf.Sym {
	n, m := ic.C.N, ic.M
	if len(data) != ic.DataSyms() {
		panic(fmt.Sprintf("rs: interleaved Encode got %d symbols, want %d", len(data), ic.DataSyms()))
	}
	if len(block) != ic.BlockSyms() {
		panic(fmt.Sprintf("rs: EncodeBlock got a %d-symbol block, want (N+K)*M=%d", len(block), ic.BlockSyms()))
	}
	stripe := block[: n*m : n*m]
	if ic.C.encW == nil {
		ic.encodeScalar(data, stripe)
	} else {
		ic.encodeWords(data, stripe, block[n*m:])
	}
	return stripe
}

// StripeWords returns the N words of a position-major stripe as views:
// word j is stripe[j*M:(j+1)*M].
func (ic *Interleaved) StripeWords(stripe []gf.Sym) [][]gf.Sym {
	m := ic.M
	out := make([][]gf.Sym, ic.C.N)
	for j := range out {
		out[j] = stripe[j*m : (j+1)*m : (j+1)*m]
	}
	return out
}

// transposeIn rewrites the lane-major data into coefficient-major slabs:
// coefT[i*M+l] is lane l's coefficient i.
func (ic *Interleaved) transposeIn(data, coefT []gf.Sym) {
	k, m := ic.C.K, ic.M
	for l := 0; l < m; l++ {
		for i := 0; i < k; i++ {
			coefT[i*m+l] = data[l*k+i]
		}
	}
}

// transposeOut is the inverse of transposeIn: coefficient-major slabs back
// into lane-major order.
func (ic *Interleaved) transposeOut(coefT, out []gf.Sym) {
	k, m := ic.C.K, ic.M
	for l := 0; l < m; l++ {
		for i := 0; i < k; i++ {
			out[l*k+i] = coefT[i*m+l]
		}
	}
}

// encodeScalar is the per-lane reference encode (codes beyond the matrix
// path's domain, and the oracle the fuzz tests compare against).
func (ic *Interleaved) encodeScalar(data, stripe []gf.Sym) {
	k, n, m := ic.C.K, ic.C.N, ic.M
	cwp := getSyms(n)
	defer symPool.Put(cwp)
	cw := *cwp
	for l := 0; l < m; l++ {
		ic.C.EncodeInto(data[l*k:(l+1)*k], cw)
		for j := 0; j < n; j++ {
			stripe[j*m+l] = cw[j]
		}
	}
}

// Decode recovers the K*M data symbols from words at >= K positions,
// verifying surplus positions.
func (ic *Interleaved) Decode(positions []int, words [][]gf.Sym) ([]gf.Sym, error) {
	if len(positions) != len(words) {
		panic("rs: positions/words length mismatch")
	}
	if len(positions) < ic.C.K {
		return nil, ErrTooFew
	}
	data := make([]gf.Sym, ic.DataSyms())
	if err := ic.DecodeInto(positions, words, data); err != nil {
		return nil, err
	}
	return data, nil
}

// checkWords validates the incoming word shapes once per operation.
func (ic *Interleaved) checkWords(words [][]gf.Sym) {
	for i, w := range words {
		if len(w) != ic.M {
			panic(fmt.Sprintf("rs: word %d has %d lanes, want %d", i, len(w), ic.M))
		}
	}
}

// DecodeInto is Decode writing into a caller-provided K*M buffer — the
// allocation-free variant. On the matrix path it runs K×K interpolation
// sweeps plus one check-row sweep per surplus position; otherwise it decodes
// lane by lane through the scalar reference.
func (ic *Interleaved) DecodeInto(positions []int, words [][]gf.Sym, out []gf.Sym) error {
	if len(positions) != len(words) {
		panic("rs: positions/words length mismatch")
	}
	if len(out) != ic.DataSyms() {
		panic(fmt.Sprintf("rs: DecodeInto got a %d-symbol buffer, want K*M=%d", len(out), ic.DataSyms()))
	}
	if len(positions) < ic.C.K {
		return ErrTooFew
	}
	ic.checkWords(words)
	st := ic.C.subsetFor(positions)
	if st == nil {
		return ic.decodeIntoScalar(positions, words, out)
	}
	k, m := ic.C.K, ic.M
	if !ic.checkSurplus(st, words) {
		return ErrInconsistent
	}
	coefp := getSyms(k * m)
	defer symPool.Put(coefp)
	ic.interpolateWords(st, words, *coefp)
	ic.transposeOut(*coefp, out)
	return nil
}

// decodeIntoScalar is the per-lane reference decode.
func (ic *Interleaved) decodeIntoScalar(positions []int, words [][]gf.Sym, out []gf.Sym) error {
	lanep := getSyms(len(words))
	defer symPool.Put(lanep)
	lane := *lanep
	for l := 0; l < ic.M; l++ {
		for i, w := range words {
			lane[i] = w[l]
		}
		if err := ic.C.DecodeInto(positions, lane, out[l*ic.C.K:(l+1)*ic.C.K]); err != nil {
			return err
		}
	}
	return nil
}

// Consistent implements the paper's membership test V/A ∈ C2t: it reports
// whether there exists a single interleaved codeword agreeing with the given
// words at the given positions (every lane must agree). On the matrix path
// this runs only the surplus check rows — no interpolation at all. With
// |A| <= K any assignment is consistent (the code has dimension K).
func (ic *Interleaved) Consistent(positions []int, words [][]gf.Sym) bool {
	if len(positions) != len(words) {
		panic("rs: positions/words length mismatch")
	}
	if len(positions) <= ic.C.K {
		return true
	}
	ic.checkWords(words)
	if st := ic.C.subsetFor(positions); st != nil {
		return ic.checkSurplus(st, words)
	}
	datap := getSyms(ic.DataSyms())
	defer symPool.Put(datap)
	return ic.decodeIntoScalar(positions, words, *datap) == nil
}

// WordsEqual reports whether two interleaved words are identical.
// A nil word (the paper's ⊥) is equal only to another nil word. The symbols
// are compared as one run of bytes.
func WordsEqual(a, b []gf.Sym) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return bytes.Equal(symBytes(a), symBytes(b))
}

// WordOr returns the bitwise OR of a word's symbols, read four 16-bit
// symbols per 64-bit load. Field orders are powers of two, so a word lies
// within GF(2^c) iff its OR does.
func WordOr(w []gf.Sym) gf.Sym {
	full := len(w) / 4 * 4
	b := symBytes(w[:full])
	var x uint64
	for i := 0; i < len(b); i += 8 {
		x |= binary.NativeEndian.Uint64(b[i:])
	}
	or := gf.Sym(x | x>>16 | x>>32 | x>>48)
	for _, s := range w[full:] {
		or |= s
	}
	return or
}

// symSize is the in-memory size of one symbol.
const symSize = int(unsafe.Sizeof(gf.Sym(0)))

// symBytes views the symbols of w as their in-memory bytes.
func symBytes(w []gf.Sym) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*symSize)
}
