package rs

import (
	"sync"

	"byzcons/internal/gf"
)

// This file is the matrix-form fast path of the code: instead of running the
// scalar log/exp interpolation per lane (K·N·M single-symbol multiplications
// per interleaved operation), every operation is expressed as a small matrix
// of cached per-scalar gf.WordTab tables swept over packed lane slabs
// (word.go):
//
//   - Encode: the K×N Vandermonde encode matrix E[i][j] = x_j^i is fixed per
//     code, so its tables are built once at construction (buildEncTabs).
//   - Decode/Consistent: for a given set of present positions, the K×K
//     interpolation matrix (columns are the Lagrange basis polynomials of
//     the first K positions) and the surplus check rows (which map the K
//     chosen values directly to the expected value at every surplus
//     position) depend only on the position set. They are cached per code,
//     keyed by the present-position bitmask — position subsets recur across
//     generations because the trust graph changes rarely (at most t(t+1)
//     times per execution, Theorem 1).
//
// The fast path requires strictly ascending positions (the bitmask is then a
// canonical key; every protocol path builds its position sets ascending) and
// N <= maxMatrixN so the mask fits a word. Anything else — and every
// matrix-built result, via the cross-check fuzz tests — falls back to the
// scalar reference path in rs.go.

// maxMatrixN bounds the code length for the matrix fast path: the subset
// cache keys present-position sets by a uint64 bitmask, and table memory
// grows with K·N. Longer codes (the n=300 scaling experiments) keep the
// scalar path.
const maxMatrixN = 64

// maxSubsets bounds the per-code subset cache. Position subsets are keyed by
// the diagnosis graph's trust state and recur heavily; an adversary that
// forces graph churn gets the cache reset, never unbounded growth.
const maxSubsets = 256

// subsetTabs holds the cached matrices of one present-position set as
// gf.WordTab tables swept over packed []uint64 lanes (word.go). They are
// built once per subset — subsets recur since the trust graph changes at
// most t(t+1) times — so the per-generation hot path only ever sweeps.
type subsetTabs struct {
	// decW[i*K+m] maps the value at the m-th chosen position onto
	// coefficient i: coeffs[i] = Σ_m decW[i*K+m]·vals[m]. It is the inverse
	// of the K×K Vandermonde submatrix of the first K present positions.
	decW []gf.WordTab
	// chkW[si*K+m] maps the K chosen values directly onto the expected value
	// at the si-th surplus position: expected = Σ_m chkW[si*K+m]·vals[m].
	chkW []gf.WordTab
}

// buildEncTabs constructs the K×N encode-matrix tables. Entries with i = 0
// (codeword position j receives coefficient 0 with weight x_j^0 = 1) and
// j = 0 (x_0 = 1, so every weight is 1) are handled with copies/AddWords by
// the encode sweep and left as zero tables here.
func (c *Code) buildEncTabs() {
	if c.N > maxMatrixN {
		return
	}
	c.encW = make([]gf.WordTab, c.K*c.N)
	for i := 1; i < c.K; i++ {
		for j := 1; j < c.N; j++ {
			c.encW[i*c.N+j] = c.F.WordTabFull(c.F.Exp(i * j)) // x_j^i = alpha^(i·j)
		}
	}
}

// posMask folds strictly ascending, in-range positions into the subset-cache
// bitmask. ok is false when the fast path does not apply.
func (c *Code) posMask(positions []int) (uint64, bool) {
	if c.N > maxMatrixN {
		return 0, false
	}
	prev := -1
	var mask uint64
	for _, p := range positions {
		if p <= prev || p >= c.N {
			return 0, false
		}
		prev = p
		mask |= 1 << uint(p)
	}
	return mask, true
}

// subsetFor returns the cached matrices for the given present positions,
// building them on first use, or nil when the matrix path does not apply.
func (c *Code) subsetFor(positions []int) *subsetTabs {
	if len(positions) < c.K {
		return nil
	}
	mask, ok := c.posMask(positions)
	if !ok {
		return nil
	}
	c.subMu.RLock()
	st := c.subs[mask]
	c.subMu.RUnlock()
	if st != nil {
		return st
	}
	st = c.buildSubset(positions)
	c.subMu.Lock()
	if c.subs == nil || len(c.subs) >= maxSubsets {
		c.subs = make(map[uint64]*subsetTabs)
	}
	if prev := c.subs[mask]; prev != nil {
		st = prev // lost a build race: keep the first (identical) result
	} else {
		c.subs[mask] = st
	}
	c.subMu.Unlock()
	return st
}

// buildSubset computes the interpolation and check matrices for one position
// set using the scalar field operations (construction is off the hot path;
// the sweeps are what run per generation).
func (c *Code) buildSubset(positions []int) *subsetTabs {
	f, k := c.F, c.K
	chosen := positions[:k]

	// master(x) = prod_m (x + x_m) over the chosen evaluation points.
	master := make([]gf.Sym, k+1)
	master[0] = 1
	deg := 0
	for _, p := range chosen {
		xm := c.xs[p]
		for d := deg + 1; d >= 1; d-- {
			master[d] = master[d-1] ^ f.Mul(master[d], xm)
		}
		master[0] = f.Mul(master[0], xm)
		deg++
	}

	// Column m of the inverse Vandermonde is the Lagrange basis polynomial
	// of x_m: L_m = (master/(x+x_m)) / q(x_m).
	cols := make([][]gf.Sym, k)
	q := make([]gf.Sym, k)
	for m, p := range chosen {
		xm := c.xs[p]
		q[k-1] = master[k]
		for d := k - 2; d >= 0; d-- {
			q[d] = master[d+1] ^ f.Mul(q[d+1], xm)
		}
		inv := f.Inv(f.EvalPoly(q, xm))
		col := make([]gf.Sym, k)
		for d := 0; d < k; d++ {
			col[d] = f.Mul(q[d], inv)
		}
		cols[m] = col
	}

	st := &subsetTabs{decW: make([]gf.WordTab, k*k)}
	for i := 0; i < k; i++ {
		for m := 0; m < k; m++ {
			st.decW[i*k+m] = f.WordTabFull(cols[m][i])
		}
	}
	surplus := positions[k:]
	st.chkW = make([]gf.WordTab, len(surplus)*k)
	for si, p := range surplus {
		xp := c.xs[p]
		for m := 0; m < k; m++ {
			// Expected value at x_p from chosen value m: L_m(x_p).
			st.chkW[si*k+m] = f.WordTabFull(f.EvalPoly(cols[m], xp))
		}
	}
	return st
}

// codeKey identifies a cached Code: fields are singletons per width, so the
// width stands in for the field.
type codeKey struct {
	c    uint
	n, k int
}

// codeCache interns constructed codes. A Code is immutable except for its
// internal subset cache (itself concurrency-safe), so every processor of
// every run shares one instance per (field, n, k) — the encode tables and
// recurring interpolation matrices are built once per process, not once per
// processor per run.
var codeCache sync.Map // codeKey -> *Code
