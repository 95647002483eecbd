package rs

import (
	"sync"

	"byzcons/internal/gf"
)

// This file runs the matrix-form sweeps of interleaved.go on the word-sliced
// kernels of gf/word.go: lane slabs are packed into []uint64 words — 8
// symbols per word for c <= 8, 4 for c <= 16 — swept with the cached
// per-scalar word tables, and unpacked at the stripe boundary. The packing
// passes are linear and amortize over the K sweeps every packed slab
// receives (the encode matrix sweeps each coefficient slab N times, the
// interpolation matrix K times). Every matrix-path operation runs here at
// every lane count; the scalar per-lane path of interleaved.go is the
// fallback beyond the matrix path's domain and the correctness oracle
// (FuzzMatrixVsScalar checks this file against it).

// wordPool recycles the packed-lane workspaces of the word-tier sweeps.
var wordPool = sync.Pool{New: func() any { return new([]uint64) }}

// getWords returns a pooled slice of n lane words (contents undefined).
func getWords(n int) *[]uint64 {
	p := wordPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

// encodeWords runs the matrix-form encode in the packed word domain:
// transpose the lane-major data into coefficient-major slabs, pack each slab
// once, sweep the word-table encode matrix per position, and unpack each
// position's row into the stripe.
func (ic *Interleaved) encodeWords(data, stripe, coefT []gf.Sym) {
	k, n, m, c := ic.C.K, ic.C.N, ic.M, ic.C.F.C()
	ic.transposeIn(data, coefT)
	mw := gf.PackedLen(c, m)
	wsp := getWords((k + 1) * mw)
	defer wordPool.Put(wsp)
	ws := *wsp
	pc, row := ws[:k*mw], ws[k*mw:]
	for i := 0; i < k; i++ {
		gf.Pack(c, coefT[i*m:(i+1)*m], pc[i*mw:(i+1)*mw])
	}
	for j := 0; j < n; j++ {
		copy(row, pc[:mw]) // coefficient 0: weight x_j^0 = 1
		if j == 0 {
			for i := 1; i < k; i++ {
				gf.AddWords(pc[i*mw:(i+1)*mw], row) // x_0 = 1
			}
		} else {
			for i := 1; i < k; i++ {
				ic.C.encW[i*n+j].MulWordsXor(pc[i*mw:(i+1)*mw], row)
			}
		}
		gf.Unpack(c, row, stripe[j*m:(j+1)*m])
	}
}

// interpolateWords runs the K×K interpolation in the packed word domain,
// leaving the recovered coefficient slabs in coefT.
func (ic *Interleaved) interpolateWords(st *subsetTabs, words [][]gf.Sym, coefT []gf.Sym) {
	k, m, c := ic.C.K, ic.M, ic.C.F.C()
	mw := gf.PackedLen(c, m)
	wsp := getWords((k + 1) * mw)
	defer wordPool.Put(wsp)
	ws := *wsp
	pw, row := ws[:k*mw], ws[k*mw:]
	for mi := 0; mi < k; mi++ {
		gf.Pack(c, words[mi], pw[mi*mw:(mi+1)*mw])
	}
	for i := 0; i < k; i++ {
		st.decW[i*k].MulWords(pw[:mw], row)
		for mi := 1; mi < k; mi++ {
			st.decW[i*k+mi].MulWordsXor(pw[mi*mw:(mi+1)*mw], row)
		}
		gf.Unpack(c, row, coefT[i*m:(i+1)*m])
	}
}

// checkSurplus verifies every surplus position's word against the value the
// K chosen words predict for it — the membership test V/A ∈ C2t as cached
// check-row sweeps, no interpolation needed. The K chosen words pack once,
// each surplus position's prediction is swept packed, and the comparison
// runs word against word (both sides zero-pad their tails identically, so
// padded words compare equal).
func (ic *Interleaved) checkSurplus(st *subsetTabs, words [][]gf.Sym) bool {
	k, c := ic.C.K, ic.C.F.C()
	surplus := len(words) - k
	if surplus == 0 {
		return true
	}
	mw := gf.PackedLen(c, ic.M)
	wsp := getWords((k + 2) * mw)
	defer wordPool.Put(wsp)
	ws := *wsp
	pw, pred, got := ws[:k*mw], ws[k*mw:(k+1)*mw], ws[(k+1)*mw:]
	for mi := 0; mi < k; mi++ {
		gf.Pack(c, words[mi], pw[mi*mw:(mi+1)*mw])
	}
	for si := 0; si < surplus; si++ {
		st.chkW[si*k].MulWords(pw[:mw], pred)
		for mi := 1; mi < k; mi++ {
			st.chkW[si*k+mi].MulWordsXor(pw[mi*mw:(mi+1)*mw], pred)
		}
		gf.Pack(c, words[k+si], got)
		for w := range pred {
			if pred[w] != got[w] {
				return false
			}
		}
	}
	return true
}
