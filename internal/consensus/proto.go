package consensus

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"byzcons/internal/bitset"
	"byzcons/internal/bsb"
	"byzcons/internal/diag"
	"byzcons/internal/gf"
	"byzcons/internal/rs"
	"byzcons/internal/sim"
)

// Output is the per-processor result of a consensus run. Every honest
// processor of the same run returns identical Value/Defaulted/Graph contents
// (asserted extensively in tests).
//
// Value may share storage with Run's input: when every generation decided
// the processor's own input and the input is exactly L bits long
// (len(input)*8 == L), Value is the input itself, not a copy. A caller that
// modifies the input after Run, or hands Value to code that modifies it,
// must copy first.
type Output struct {
	Value         []byte      // decided value: exactly ceil(L/8) bytes, L meaningful bits
	L             int         // value length in bits
	Defaulted     bool        // true if decided the default (no Pmatch: honest inputs differ)
	Generations   int         // generations executed, including a defaulting one
	DiagnosisRuns int         // diagnosis stages executed (Theorem 1: <= t(t+1))
	Graph         *diag.Graph // final diagnosis graph
	// Rounds is the number of synchronous rounds the run executed: the sum of
	// the per-generation round counts. Every processor executes the same step
	// sequence, so it is identical at every processor and across backends.
	Rounds int64
}

// worker is the execution context of the generations at one processor: the
// processor handle, a broadcaster on that handle, and the diagnosis graph.
type worker struct {
	p     *sim.Proc
	par   Params
	field *gf.Field
	ic    *rs.Interleaved
	bcast bsb.Broadcaster
	g     *diag.Graph
	diags int
	pc    phaseClock // the running generation's clock (timing.go)
	// sc is the worker's generation scratch, attached once per run from the
	// cross-run pool: per-generation pool traffic would churn slots, while
	// per-run scratch would pay the batch buffers' growth on every run.
	sc *genScratch
	// ml is the match-vector batch of the current active set (matchList).
	ml *matchList
	// dec receives a non-member's decoded symbols; Run writes them into the
	// value before the next generation starts.
	dec []gf.Sym
	// stripes are the run's two encode buffers (rs.EncodeBlock), used by
	// generation parity, with words the stripes' N views and word my own
	// view boxed once as a message payload. A peer reads my generation-g word
	// until it passes a barrier of generation g+1, and I rewrite that stripe
	// only at generation g+2, after every peer reached those barriers. The
	// stripes stay with the run rather than the pooled scratch: a non-member
	// still decodes from its peers' words after the run's last barrier.
	stripes [2][]gf.Sym
	words   [2][][]gf.Sym
	word    [2]any
}

// newBroadcaster constructs the configured Broadcast_Single_Bit
// implementation bound to p. par must already be normalized (the kind was
// validated once at run start, so construction cannot fail here except for
// programming errors, which abort).
func newBroadcaster(p *sim.Proc, par Params) bsb.Broadcaster {
	bcast, err := bsb.New(par.BSB, p, par.N, par.T)
	if err != nil {
		p.Abort(err)
	}
	switch {
	case par.BSB == bsb.Oracle && par.BSBCost > 0:
		bcast = bsb.NewOracle(p, par.N, par.T, par.BSBCost)
	case par.BSB == bsb.ProbOracle:
		bcast = bsb.NewProbOracle(p, par.N, par.T, par.BSBCost, par.BSBEpsilon)
	}
	return bcast
}

// Run executes Algorithm 1 at processor p over the L-bit input. All
// processors of a run must pass the same par and L. The same code runs at
// honest and faulty processors; Byzantine deviation is injected by the
// simulator's adversary.
//
// Generations run one after another, as in the paper: generation g+1 starts
// from the diagnosis graph generation g left behind. Overlapping rounds is
// the job of a larger generation (Params.Lanes), not of this loop (DESIGN
// §10).
//
// The input is read and the decision written a generation at a time, in
// place: D is a whole number of c-bit symbols and c is 8 or 16, so
// generation g is exactly bytes [g·D/8, (g+1)·D/8) of both the packed input
// (zero bytes past its end) and the value (ceil(L/8) bytes, the bits past L
// cleared at the end). A Pmatch member decides its own input, and so does a
// non-member whose decision equals its input, so those generations are copied
// from the input rather than written symbol by symbol, and the value is
// allocated only when a generation decides otherwise: a processor whose
// every generation decided its own input holds no value buffer while the
// generations run, and at the end its value is the input itself when the
// input is exactly L bits (Output), a copy otherwise.
func Run(p *sim.Proc, par Params, input []byte, L int) *Output {
	par, err := par.normalized(L)
	if err != nil {
		p.Abort(err)
	}
	field, err := gf.New(par.SymBits)
	if err != nil {
		p.Abort(err)
	}
	code, err := rs.New(field, par.N, par.K())
	if err != nil {
		p.Abort(err)
	}
	ic, err := rs.NewInterleaved(code, par.Lanes)
	if err != nil {
		p.Abort(err)
	}

	w := &worker{
		p: p, par: par, field: field, ic: ic,
		bcast: newBroadcaster(p, par), g: diag.NewComplete(par.N),
		sc:  scratchPool.Get().(*genScratch),
		dec: make([]gf.Sym, ic.DataSyms()),
	}
	blocks := make([]gf.Sym, 2*ic.BlockSyms())
	for i := range w.stripes {
		w.stripes[i] = blocks[i*ic.BlockSyms() : (i+1)*ic.BlockSyms()]
		w.words[i] = ic.StripeWords(w.stripes[i][:par.N*par.Lanes])
		w.word[i] = w.words[i][p.ID]
	}
	w.ml = w.sc.fullList(par.N)
	D := ic.DataBits()
	gens, size := (L+D-1)/D, D/8
	out := &Output{L: L}
	var value []byte // nil while every generation so far decided my own input
	data := make([]gf.Sym, ic.DataSyms())
	rounds0 := p.LocalRounds()
	for g := 0; g < gens; g++ {
		readGen(data, input, g, par.SymBits)
		diags0 := w.diags
		decided, defaulted := w.generation(g, data)
		out.Generations++
		if par.Observer != nil {
			par.Observer(p.ID, g, GenInfo{
				Defaulted: defaulted,
				Diagnosed: w.diags > diags0,
				Graph:     w.g.Clone(),
			})
		}
		if defaulted {
			out.Defaulted = true
			break
		}
		switch {
		case decided != nil && value == nil && rs.WordsEqual(decided, data):
			// The decode (a non-member's, or Pdecide's after a diagnosis)
			// is exactly my own input: still nothing to write.
		case decided != nil:
			if value == nil {
				value = make([]byte, (L+7)/8)
				copy(value[:min(g*size, len(value))], input) // generations 0..g-1 decided my own input
			}
			writeGen(value, g, decided, par.SymBits)
		case value != nil:
			copy(genBytes(value, g, size), genBytes(input, g, size))
		}
	}
	switch {
	case out.Defaulted:
		value = defaultValue(par.Default, L)
	case value == nil && len(input)*8 == L:
		value = input
	case value == nil:
		value = make([]byte, (L+7)/8)
		copy(value, input)
	}
	clearPastL(value, L)
	out.Value = value
	out.DiagnosisRuns, out.Graph, out.Rounds = w.diags, w.g, p.LocalRounds()-rounds0
	scratchPool.Put(w.sc) // an aborted run unwinds past this and leaves its scratch to the collector
	return out
}

// genBytes returns the bytes of b that generation g of size bytes covers:
// b[g·size, (g+1)·size) clipped to len(b), empty past its end.
func genBytes(b []byte, g, size int) []byte {
	lo := min(g*size, len(b))
	return b[lo:min(lo+size, len(b))]
}

// readGen fills data with generation g's data symbols: the generation's bytes
// of the packed input, one symbol per byte (c = 8) or per big-endian byte
// pair (c = 16), with zeros past the end of the input — the MSB-first bit
// stream the value is defined as, read c bits at a time.
func readGen(data []gf.Sym, input []byte, g int, c uint) {
	src := genBytes(input, g, len(data)*int(c/8))
	if c == 8 {
		for i, b := range src {
			data[i] = gf.Sym(b)
		}
		clear(data[len(src):])
		return
	}
	full := len(src) / 2
	for i := 0; i < full; i++ {
		data[i] = gf.Sym(binary.BigEndian.Uint16(src[2*i:]))
	}
	clear(data[full:])
	if len(src)%2 == 1 {
		data[full] = gf.Sym(src[len(src)-1]) << 8
	}
}

// writeGen stores generation g's decided symbols into the value, the inverse
// of readGen; symbols past the value's last byte are dropped.
func writeGen(value []byte, g int, syms []gf.Sym, c uint) {
	dst := genBytes(value, g, len(syms)*int(c/8))
	if c == 8 {
		for i := range dst {
			dst[i] = byte(syms[i])
		}
		return
	}
	full := len(dst) / 2
	for i := 0; i < full; i++ {
		binary.BigEndian.PutUint16(dst[2*i:], uint16(syms[i]))
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] = byte(syms[full] >> 8)
	}
}

// clearPastL zeroes the bits of the final byte of an L-bit value that lie
// past L.
func clearPastL(value []byte, L int) {
	if rem := L % 8; rem != 0 {
		value[len(value)-1] &= byte(0xFF << (8 - uint(rem)))
	}
}

// defaultValue pads/truncates def to exactly L bits.
func defaultValue(def []byte, L int) []byte {
	v := make([]byte, (L+7)/8)
	copy(v, def)
	clearPastL(v, L)
	return v
}

// genLabels is one generation's set of step labels. Labels repeat across
// processors and instances, so they are interned once per generation index
// instead of concatenated per step per processor.
type genLabels struct {
	matchSym, matchM, checkDet, diagSym, diagTrust sim.StepID
}

// labelCache is a grow-only table indexed by generation (atomic pointer to
// an immutable slice: the lookup is one load and one index, with no map
// hashing on the per-generation path).
var (
	labelCache   atomic.Pointer[[]*genLabels]
	labelCacheMu sync.Mutex
)

// labelsFor returns generation g's interned step labels.
func labelsFor(g int) *genLabels {
	if t := labelCache.Load(); t != nil && g < len(*t) && (*t)[g] != nil {
		return (*t)[g]
	}
	labelCacheMu.Lock()
	defer labelCacheMu.Unlock()
	var table []*genLabels
	if t := labelCache.Load(); t != nil {
		if g < len(*t) && (*t)[g] != nil {
			return (*t)[g]
		}
		table = append(table, *t...)
	}
	for len(table) <= g {
		table = append(table, nil)
	}
	prefix := fmt.Sprintf("g%d", g)
	l := &genLabels{
		matchSym:  sim.StepID(prefix + "/match.sym"),
		matchM:    sim.StepID(prefix + "/match.M"),
		checkDet:  sim.StepID(prefix + "/check.det"),
		diagSym:   sim.StepID(prefix + "/diag.sym"),
		diagTrust: sim.StepID(prefix + "/diag.trust"),
	}
	table[g] = l
	labelCache.Store(&table)
	return l
}

// genScratch is one generation's pooled working storage. A generation at
// n=7 made ~40 small allocations (outboxes, match matrices, broadcast
// instance batches) — over half the runtime allocation volume of a batched
// deployment — all with lifetimes that end inside the generation call:
// outgoing message slices are consumed by the barrier before Exchange
// returns, broadcast instance batches are read by adversaries only during
// the step they are metadata of, and the trust matrix is local. The match
// batch is the exception: it outlives generations (matchList).
type genScratch struct {
	n          int
	out        []sim.Message
	R          [][]gf.Sym
	M          []bool
	insts      []bsb.Inst
	mine       []bool
	adj        []bitset.Set
	pmSet      bitset.Set
	nonMembers bitset.Set
	detected   []bool
	trust      [][]bool
	trustB     []bool
	removedNow []int
	pos        []int
	words      [][]gf.Sym
	// full is the match list of the complete graph on n processors, kept
	// across runs: every run starts from it.
	full *matchList
}

var scratchPool = sync.Pool{New: func() any { return new(genScratch) }}

// grab sizes the scratch for n processors and clears everything a
// generation reads before writing.
func (sc *genScratch) grab(n int) {
	if sc.n != n {
		sc.n = n
		sc.out = nil
		sc.R = make([][]gf.Sym, n)
		sc.M = make([]bool, n)
		sc.trustB = make([]bool, n*n)
		sc.trust = make([][]bool, n)
		for i := 0; i < n; i++ {
			sc.trust[i] = sc.trustB[i*n : (i+1)*n]
		}
		sc.adj = make([]bitset.Set, n)
		for i := range sc.adj {
			sc.adj[i] = bitset.New(n)
		}
		sc.pmSet, sc.nonMembers = bitset.New(n), bitset.New(n)
		sc.detected = make([]bool, n)
		sc.removedNow = make([]int, n)
	}
	sc.out = sc.out[:0]
	for i := 0; i < n; i++ {
		sc.R[i] = nil
		sc.detected[i] = false
		sc.adj[i].Clear()
	}
	sc.pmSet.Clear()
	sc.nonMembers.Clear()
	sc.insts = sc.insts[:0]
	sc.mine = sc.mine[:0]
	sc.pos = sc.pos[:0]
	sc.words = sc.words[:0]
}

// fullList returns the match list of the complete graph on n processors,
// building it on first use at this n.
func (sc *genScratch) fullList(n int) *matchList {
	if sc.full == nil || len(sc.full.pos) != n {
		sc.full = newMatchList(bitset.Full(n))
	}
	return sc.full
}

// matchList is the line 1(d) broadcast batch of one active set: the entries
// M_p[j] for every ordered pair of distinct active processors, row by row in
// ascending id order. It depends on nothing but the active set, so a run
// builds it once and again only when diagnosis isolates a processor — not at
// every processor in every generation. A list is never written after it is
// built: Broadcast hands insts to the adversary as step metadata, and the
// complete-graph list is shared by every run that draws the same scratch.
type matchList struct {
	active bitset.Set
	procs  []int      // the active processors, ascending
	pos    []int      // pos[p] is p's index in procs, -1 if p is isolated
	insts  []bsb.Inst // row a (source procs[a]) is insts[a·(A-1) : (a+1)·(A-1)]
}

func newMatchList(active bitset.Set) *matchList {
	procs := active.Slice()
	pos := make([]int, active.Cap())
	for i := range pos {
		pos[i] = -1
	}
	for a, p := range procs {
		pos[p] = a
	}
	insts := make([]bsb.Inst, 0, len(procs)*max(len(procs)-1, 0))
	for _, p := range procs {
		for _, j := range procs {
			if j != p {
				insts = append(insts, bsb.Inst{Src: p, Kind: "M", A: p, B: j})
			}
		}
	}
	return &matchList{active: active, procs: procs, pos: pos, insts: insts}
}

// release clears payload references (they must not outlive their run; the
// scratch itself stays with its worker).
func (sc *genScratch) release() {
	for i := range sc.R {
		sc.R[i] = nil
	}
	for i := range sc.out {
		sc.out[i] = sim.Message{}
	}
	for i := range sc.words {
		sc.words[i] = nil
	}
}

// generation runs Algorithm 1 for generation g on this processor's D-bit
// input (as data symbols). It returns the decided data symbols — nil when
// they are this processor's own input, valid until the next generation
// otherwise — or defaulted=true when no Pmatch exists.
func (pr *worker) generation(g int, data []gf.Sym) (decided []gf.Sym, defaulted bool) {
	n, t, k := pr.par.N, pr.par.T, pr.par.K()
	me := pr.p.ID
	labels := labelsFor(g)
	sc := pr.sc
	sc.grab(n)
	defer sc.release()
	pc := pr.clock(g)
	defer pc.finish()
	ml := pr.ml
	active := ml.active

	// --- Matching stage ---------------------------------------------------
	// 1(a): encode and send my codeword symbol to every trusted processor.
	pt := pc.now()
	pr.ic.EncodeBlock(data, pr.stripes[g&1])
	pc.addRS(pt)
	S, word := pr.words[g&1], pr.word[g&1]
	bits := int64(pr.ic.WordBits())
	out := sc.out
	for _, j := range ml.procs {
		if j != me && pr.g.Trusts(me, j) {
			out = append(out, sim.Message{To: j, Payload: word, Bits: bits, Tag: "match.sym"})
		}
	}
	sc.out = out // keep the grown buffer pooled
	in := pr.p.Exchange(labels.matchSym, out, nil)

	// 1(b): received symbols; ⊥ (nil) for untrusted or malformed senders.
	R := sc.R
	for _, m := range in {
		if !pr.g.Trusts(me, m.From) || R[m.From] != nil {
			continue
		}
		R[m.From] = pr.validWord(m.Payload)
	}
	R[me] = S[me]

	// 1(c): M_i[j] — does j's symbol match my codeword?
	M := sc.M
	for j := 0; j < n; j++ {
		switch {
		case j == me:
			M[j] = pr.g.Trusts(me, me)
		default:
			M[j] = pr.g.Trusts(me, j) && rs.WordsEqual(R[j], S[j])
		}
	}

	// 1(d): broadcast M (n-1 bits per active processor; isolated processors
	// neither broadcast nor appear as entries — everyone knows them faulty).
	// The batch is the active set's cached list; only my own row of inputs
	// is filled in.
	A := len(ml.procs)
	mine := slices.Grow(sc.mine[:0], len(ml.insts))[:len(ml.insts)]
	clear(mine)
	if a := ml.pos[me]; a >= 0 {
		row := mine[a*(A-1) : (a+1)*(A-1)]
		c := 0
		for _, j := range ml.procs {
			if j != me {
				row[c] = M[j]
				c++
			}
		}
	}
	sc.mine = mine
	pt = pc.now()
	res := pr.bcast.Broadcast(labels.matchM, ml.insts, mine, "match.M")
	pc.addBcast(pt)

	// 1(e): find Pmatch, a clique of size n-t in the mutual-match graph.
	pm := pr.pmatch(res, n-t)
	if pm == nil {
		// 1(f): honest processors provably do not share one input value.
		return nil, true
	}
	pmSet, nonMembers := sc.pmSet, sc.nonMembers
	for _, j := range pm {
		pmSet.Add(j)
	}
	for _, j := range ml.procs {
		if !pmSet.Has(j) {
			nonMembers.Add(j)
		}
	}

	// --- Checking stage ---------------------------------------------------
	// 2(a)+2(b): non-members check consistency of Pmatch symbols and
	// broadcast a 1-bit Detected flag. Words that all equal my own
	// codeword's symbols (M_i[j]) lie on that codeword, hence are
	// consistent without the check.
	var pos []int
	var words [][]gf.Sym
	onMine := 0 // how many of the words equal my own codeword's symbols
	if !pmSet.Has(me) {
		pos, words = pr.trustedWords(sc, pmSet, R)
		for _, j := range pos {
			if M[j] {
				onMine++
			}
		}
	}
	dInsts, dMine := sc.insts[:0], sc.mine[:0]
	myDetected := false
	if nonMembers.Has(me) && onMine < len(pos) {
		pt = pc.now()
		myDetected = !pr.ic.Consistent(pos, words)
		pc.addRS(pt)
	}
	nonMembers.ForEach(func(j int) bool {
		dInsts = append(dInsts, bsb.Inst{Src: j, Kind: "Det", A: j})
		dMine = append(dMine, j == me && myDetected)
		return true
	})
	sc.insts, sc.mine = dInsts, dMine
	pt = pc.now()
	dRes := pr.bcast.Broadcast(labels.checkDet, dInsts, dMine, "check.det")
	pc.addBcast(pt)
	detected := sc.detected
	anyDetected := false
	for idx, inst := range dInsts {
		detected[inst.A] = dRes[idx]
		anyDetected = anyDetected || dRes[idx]
	}

	// 2(c): if nobody detected, decide directly.
	if !anyDetected {
		if pmSet.Has(me) {
			// A member's own symbols match Pmatch (M_i[j] = true for all
			// members), so its decode equals its own input (Lemma 3).
			return nil, false
		}
		if len(pos) < k {
			// Only possible at an isolated (hence faulty) processor, whose
			// return value is irrelevant; honest processors trust all >= n-2t
			// honest members of Pmatch.
			clear(pr.dec)
			return pr.dec, false
		}
		if !myDetected && onMine >= k {
			// My words lie on one codeword (2(a) checked it, or they all
			// lie on my own), at least k of them on my own, and k positions
			// determine a codeword: the decode is my input.
			return nil, false
		}
		pt = pc.now()
		err := pr.ic.DecodeInto(pos, words, pr.dec)
		pc.addRS(pt)
		if err != nil {
			pr.p.Abort(fmt.Errorf("consensus: g%d: undetected inconsistency at decode: %v", g, err))
		}
		return pr.dec, false
	}

	// --- Diagnosis stage ----------------------------------------------------
	pc.enterDiag()
	pr.diags++
	wordBits := pr.ic.WordBits()

	// 3(a)+3(b): members broadcast their own codeword symbol bit by bit; the
	// results R#[j] are identical at all processors.
	sInsts, sMine := sc.insts[:0], sc.mine[:0]
	myWordBits := wordToBits(S[me], pr.par.SymBits)
	for _, j := range pm {
		for b := 0; b < wordBits; b++ {
			sInsts = append(sInsts, bsb.Inst{Src: j, Kind: "Rsym", A: j, B: b})
			sMine = append(sMine, j == me && myWordBits[b])
		}
	}
	sc.insts, sc.mine = sInsts[:0], sMine[:0] // keep any growth pooled
	pt = pc.now()
	sRes := pr.bcast.Broadcast(labels.diagSym, sInsts, sMine, "diag.sym")
	pc.addBcast(pt)
	Rhash := make([][]gf.Sym, n)
	for mi, j := range pm {
		Rhash[j] = bitsToWord(sRes[mi*wordBits:(mi+1)*wordBits], pr.par.Lanes, pr.par.SymBits)
	}

	// 3(c)+3(d): broadcast trust vectors over Pmatch.
	tInsts, tMine := sc.insts[:0], sc.mine[:0]
	active.ForEach(func(p int) bool {
		for _, j := range pm {
			tInsts = append(tInsts, bsb.Inst{Src: p, Kind: "Trust", A: p, B: j})
			tMine = append(tMine, p == me && pr.g.Trusts(me, j) && rs.WordsEqual(R[j], Rhash[j]))
		}
		return true
	})
	sc.insts, sc.mine = tInsts, tMine
	pt = pc.now()
	tRes := pr.bcast.Broadcast(labels.diagTrust, tInsts, tMine, "diag.trust")
	pc.addBcast(pt)
	trust := sc.trust
	for idx, inst := range tInsts {
		trust[inst.A][inst.B] = tRes[idx]
	}

	// 3(e): remove edges that lost trust; remember fresh removals per vertex.
	removedNow := sc.removedNow
	clear(removedNow)
	active.ForEach(func(p int) bool {
		for _, j := range pm {
			if p != j && !trust[p][j] {
				if pr.g.RemoveEdge(p, j) {
					removedNow[p]++
					removedNow[j]++
				}
			}
		}
		return true
	})

	// 3(f): with a consistent R#, a non-member that claimed detection but had
	// no incident edge removed lied, hence is faulty: isolate it.
	pmPos := append([]int(nil), pm...)
	pmWords := make([][]gf.Sym, len(pm))
	for i, j := range pm {
		pmWords[i] = Rhash[j]
	}
	pt = pc.now()
	pmOK := pr.ic.Consistent(pmPos, pmWords)
	pc.addRS(pt)
	if pmOK {
		nonMembers.ForEach(func(j int) bool {
			if detected[j] && removedNow[j] == 0 {
				pr.g.Isolate(j)
			}
			return true
		})
	}

	// 3(g): a vertex that has lost more than t edges is certainly faulty.
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !pr.g.Isolated(v) && pr.g.RemovedCount(v) >= t+1 {
				pr.g.Isolate(v)
				changed = true
			}
		}
	}

	// 3(h): Pdecide — n-2t mutually trusting members in the updated graph.
	// An isolation above shrinks the active set, and with it the match list
	// of the next generation.
	if active = pr.g.Active(); !active.Equal(ml.active) {
		pr.ml = newMatchList(active)
	}
	pd := pr.g.Clique(pmSet.And(active), k)
	if pd == nil {
		pr.p.Abort(fmt.Errorf("consensus: g%d: no Pdecide despite >= n-2t honest members (invariant broken)", g))
	}

	// 3(i): decide from the commonly-known R# restricted to Pdecide.
	pdWords := make([][]gf.Sym, len(pd))
	for i, j := range pd {
		pdWords[i] = Rhash[j]
	}
	pt = pc.now()
	err := pr.ic.DecodeInto(pd, pdWords, pr.dec)
	pc.addRS(pt)
	if err != nil {
		pr.p.Abort(fmt.Errorf("consensus: g%d: Pdecide decode failed: %v", g, err))
	}
	return pr.dec, false
}

// pmatch returns the lexicographically first clique of the given size in the
// mutual-match graph of the active set — i ~ j iff M_i[j] and M_j[i], read
// from the results of the match list's batch, where entry M_procs[a][procs[b]]
// sits at a·(A-1)+b, one less when b is past the diagonal — or nil if there
// is none. When every active pair matches (every fault-free generation) the
// answer is the first size active processors, FindClique's answer without
// the graph or the search; that result shares the match list's storage and
// is read-only.
func (pr *worker) pmatch(res []bool, size int) []int {
	ml := pr.ml
	A := len(ml.procs)
	mutual := func(a, b int) bool { return res[a*(A-1)+b-1] && res[b*(A-1)+a] }
	complete := true
	for a := 0; a < A && complete; a++ {
		for b := a + 1; b < A && complete; b++ {
			complete = mutual(a, b)
		}
	}
	if complete {
		if A < size {
			return nil
		}
		return ml.procs[:size:size]
	}
	adj := pr.sc.adj
	for a, i := range ml.procs {
		for b := a + 1; b < A; b++ {
			if mutual(a, b) {
				j := ml.procs[b]
				adj[i].Add(j)
				adj[j].Add(i)
			}
		}
	}
	return diag.FindClique(adj, ml.active, size)
}

// trustedWords returns the sorted positions within set that this processor
// trusts, along with the corresponding received words (never nil for trusted
// senders that delivered well-formed symbols; nil entries are skipped since
// an honest processor's consistency check only uses symbols it actually
// received from processors it trusts).
func (pr *worker) trustedWords(sc *genScratch, set bitset.Set, R [][]gf.Sym) ([]int, [][]gf.Sym) {
	pos, words := sc.pos[:0], sc.words[:0]
	set.ForEach(func(j int) bool {
		if pr.g.Trusts(pr.p.ID, j) && R[j] != nil {
			pos = append(pos, j)
			words = append(words, R[j])
		}
		return true
	})
	sc.pos, sc.words = pos, words
	return pos, words
}

// validWord checks an incoming matching-stage payload: it must be a word of
// exactly Lanes symbols, each within the field. Anything else is ⊥.
func (pr *worker) validWord(payload any) []gf.Sym {
	w, ok := payload.([]gf.Sym)
	if !ok || len(w) != pr.par.Lanes {
		return nil
	}
	if int(rs.WordOr(w)) >= pr.field.Order() {
		return nil
	}
	return w
}

// wordToBits flattens a word to bits, lane-major, MSB first per symbol.
func wordToBits(w []gf.Sym, c uint) []bool {
	bits := make([]bool, 0, len(w)*int(c))
	for _, s := range w {
		for b := int(c) - 1; b >= 0; b-- {
			bits = append(bits, s>>uint(b)&1 == 1)
		}
	}
	return bits
}

// bitsToWord reassembles m symbols of c bits each from bits.
func bitsToWord(bits []bool, m int, c uint) []gf.Sym {
	w := make([]gf.Sym, m)
	idx := 0
	for l := 0; l < m; l++ {
		var s gf.Sym
		for b := 0; b < int(c); b++ {
			s <<= 1
			if idx < len(bits) && bits[idx] {
				s |= 1
			}
			idx++
		}
		w[l] = s
	}
	return w
}
