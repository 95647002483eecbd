// Package rs implements Reed-Solomon evaluation codes over GF(2^c), providing
// exactly the three operations the consensus algorithm needs from the code
// C2t (an (n, n-2t) code of distance 2t+1):
//
//   - Encode: k data symbols -> n coded symbols,
//   - Decode from any subset of >= k positions (with consistency verification
//     of the surplus positions), and
//   - the membership test V/A ∈ C2t from the paper (Consistent).
//
// Data symbols are the coefficients of a polynomial f with deg f < k; the
// codeword is (f(x_1), ..., f(x_n)) at distinct nonzero points x_j = alpha^(j-1).
// Any k positions of a codeword therefore determine the data uniquely, which
// is the property Lemmas 2, 3 and 5 of the paper rely on.
package rs

import (
	"errors"
	"fmt"
	"sync"

	"byzcons/internal/gf"
)

// ErrInconsistent is returned when the supplied symbols do not lie on any
// single codeword (the paper's "V/A not in C2t" case).
var ErrInconsistent = errors.New("rs: symbols inconsistent with any codeword")

// ErrTooFew is returned when fewer than K positions are supplied to Decode.
var ErrTooFew = errors.New("rs: fewer than K symbols supplied")

// Code is an (N, K) Reed-Solomon code over the field F. Codes are interned:
// New returns one shared, concurrency-safe instance per (field, n, k), so
// the matrix-form tables (matrix.go) are built once per process.
type Code struct {
	F  *gf.Field
	N  int      // code length
	K  int      // dimension
	xs []gf.Sym // evaluation points, xs[j] = alpha^j

	// encW holds the K×N encode matrix as word tables for the packed-lane
	// sweeps of word.go (nil for codes longer than maxMatrixN, which stay on
	// the scalar path).
	encW []gf.WordTab
	// subs caches the interpolation/check matrices per present-position
	// bitmask (see matrix.go).
	subMu sync.RWMutex
	subs  map[uint64]*subsetTabs
}

// New returns the (n, k) Reed-Solomon code over f. Construction is cached:
// repeated calls with the same parameters return the same instance (every
// simulated processor of every generation constructs its codes).
func New(f *gf.Field, n, k int) (*Code, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("rs: invalid dimension k=%d for n=%d", k, n)
	}
	if n > f.MaxCodeLen() {
		return nil, fmt.Errorf("rs: length n=%d exceeds max %d for GF(2^%d)", n, f.MaxCodeLen(), f.C())
	}
	key := codeKey{c: f.C(), n: n, k: k}
	if v, ok := codeCache.Load(key); ok {
		return v.(*Code), nil
	}
	xs := make([]gf.Sym, n)
	for j := 0; j < n; j++ {
		xs[j] = f.Exp(j)
	}
	c := &Code{F: f, N: n, K: k, xs: xs}
	c.buildEncTabs()
	v, _ := codeCache.LoadOrStore(key, c)
	return v.(*Code), nil
}

// Distance returns the minimum distance of the code, n-k+1.
func (c *Code) Distance() int { return c.N - c.K + 1 }

// Encode maps k data symbols to the n symbols of the corresponding codeword.
func (c *Code) Encode(data []gf.Sym) []gf.Sym {
	return c.EncodeInto(data, make([]gf.Sym, c.N))
}

// EncodeInto writes the codeword for data into out (length N) and returns
// it. It is the allocation-free variant of Encode for hot paths that reuse a
// scratch codeword across calls.
func (c *Code) EncodeInto(data, out []gf.Sym) []gf.Sym {
	if len(data) != c.K {
		panic(fmt.Sprintf("rs: Encode got %d symbols, want K=%d", len(data), c.K))
	}
	if len(out) != c.N {
		panic(fmt.Sprintf("rs: EncodeInto got a %d-symbol buffer, want N=%d", len(out), c.N))
	}
	for j := 0; j < c.N; j++ {
		out[j] = c.F.EvalPoly(data, c.xs[j])
	}
	return out
}

// interpScratch holds Interpolate's working buffers. They are pooled: every
// generation of every processor interpolates (decode and consistency checks
// are the per-generation hot path), and the instances of a batch interpolate
// concurrently, so per-call allocation would churn while a plain per-Code
// buffer would race.
type interpScratch struct {
	xs     []gf.Sym
	master []gf.Sym
	q      []gf.Sym
	seen   []bool
}

var interpPool = sync.Pool{New: func() any { return new(interpScratch) }}

// grab sizes the scratch for a (k, n) interpolation, clearing the seen set.
func (sc *interpScratch) grab(k, n int) {
	if cap(sc.xs) < k {
		sc.xs = make([]gf.Sym, k)
		sc.q = make([]gf.Sym, k)
		sc.master = make([]gf.Sym, k+1)
	}
	sc.xs = sc.xs[:k]
	sc.q = sc.q[:k]
	sc.master = sc.master[:k+1]
	for i := range sc.master {
		sc.master[i] = 0
	}
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	sc.seen = sc.seen[:n]
	for i := range sc.seen {
		sc.seen[i] = false
	}
}

// Interpolate recovers the data (polynomial coefficients) from exactly K
// (position, value) pairs. Positions are zero-based codeword indices and must
// be distinct and in range.
func (c *Code) Interpolate(positions []int, vals []gf.Sym) []gf.Sym {
	return c.interpolateInto(positions, vals, make([]gf.Sym, c.K))
}

// interpolateInto is Interpolate writing into caller-provided coefficient
// storage, with pooled working buffers.
func (c *Code) interpolateInto(positions []int, vals, coeffs []gf.Sym) []gf.Sym {
	k := c.K
	if len(positions) != k || len(vals) != k {
		panic(fmt.Sprintf("rs: Interpolate needs exactly K=%d points, got %d/%d", k, len(positions), len(vals)))
	}
	f := c.F
	sc := interpPool.Get().(*interpScratch)
	defer interpPool.Put(sc)
	sc.grab(k, c.N)
	xs, seen := sc.xs, sc.seen
	for i, p := range positions {
		if p < 0 || p >= c.N {
			panic(fmt.Sprintf("rs: position %d out of range [0,%d)", p, c.N))
		}
		if seen[p] {
			panic(fmt.Sprintf("rs: duplicate position %d", p))
		}
		seen[p] = true
		xs[i] = c.xs[p]
	}

	// master(x) = prod_i (x + xs[i]); char 2 so minus == plus.
	master := sc.master
	master[0] = 1
	deg := 0
	for _, xi := range xs {
		// master *= (x + xi)
		for d := deg + 1; d >= 1; d-- {
			master[d] = master[d-1] ^ f.Mul(master[d], xi)
		}
		master[0] = f.Mul(master[0], xi)
		deg++
	}

	for d := range coeffs {
		coeffs[d] = 0
	}
	q := sc.q // quotient master/(x+xi), degree k-1
	for i := 0; i < k; i++ {
		xi := xs[i]
		// Synthetic division of master by (x + xi) == (x - xi).
		q[k-1] = master[k]
		for d := k - 2; d >= 0; d-- {
			q[d] = master[d+1] ^ f.Mul(q[d+1], xi)
		}
		// denom = prod_{j != i} (xi + xs[j]) = q(xi).
		denom := f.EvalPoly(q, xi)
		scale := f.Div(vals[i], denom)
		for d := 0; d < k; d++ {
			coeffs[d] ^= f.Mul(scale, q[d])
		}
	}
	return coeffs
}

// Decode recovers the data from at least K (position, value) pairs,
// verifying that every supplied symbol lies on the interpolated codeword.
// It returns ErrTooFew with fewer than K points and ErrInconsistent if the
// points do not agree on a single codeword.
func (c *Code) Decode(positions []int, vals []gf.Sym) ([]gf.Sym, error) {
	if len(positions) < c.K {
		return nil, ErrTooFew
	}
	data := make([]gf.Sym, c.K)
	if err := c.DecodeInto(positions, vals, data); err != nil {
		return nil, err
	}
	return data, nil
}

// DecodeInto is Decode writing the K data symbols into out — the
// allocation-free variant for hot paths decoding many lanes into one
// preallocated buffer.
func (c *Code) DecodeInto(positions []int, vals, out []gf.Sym) error {
	if len(positions) != len(vals) {
		panic("rs: positions/vals length mismatch")
	}
	if len(out) != c.K {
		panic(fmt.Sprintf("rs: DecodeInto got a %d-symbol buffer, want K=%d", len(out), c.K))
	}
	if len(positions) < c.K {
		return ErrTooFew
	}
	data := c.interpolateInto(positions[:c.K], vals[:c.K], out)
	for i := c.K; i < len(positions); i++ {
		p := positions[i]
		if p < 0 || p >= c.N {
			panic(fmt.Sprintf("rs: position %d out of range [0,%d)", p, c.N))
		}
		if c.F.EvalPoly(data, c.xs[p]) != vals[i] {
			return ErrInconsistent
		}
	}
	return nil
}

// Consistent implements the paper's membership test V/A ∈ C2t: it reports
// whether there exists a codeword agreeing with vals at the given positions.
// With |A| <= K any assignment is consistent (the code has dimension K).
func (c *Code) Consistent(positions []int, vals []gf.Sym) bool {
	if len(positions) <= c.K {
		return true
	}
	_, err := c.Decode(positions, vals)
	return err == nil
}
