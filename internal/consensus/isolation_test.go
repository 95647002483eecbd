package consensus

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"byzcons/internal/adversary"
	"byzcons/internal/bsb"
	"byzcons/internal/metrics"
	"byzcons/internal/sim"
)

// TestIsolationReducesTraffic checks the flip side of the diagnosis cost:
// once faulty processors are identified and isolated, honest processors stop
// sending to them and skip their broadcast instances, so a long run that
// isolates its faults early ends up CHEAPER than the fail-free run of the
// same length — the paper's "effectively isolated from the network".
func TestIsolationReducesTraffic(t *testing.T) {
	t.Parallel()
	val := bytes.Repeat([]byte{0x42}, 120)
	L := len(val) * 8
	par := Params{N: 7, T: 2, BSB: bsb.Oracle, Lanes: 1, SymBits: 8}
	faulty := []int{5, 6}

	run := func(adv sim.Adversary) *metrics.Meter {
		res := sim.Run(sim.RunConfig{N: 7, Faulty: faulty, Adversary: adv, Seed: 3}, func(p *sim.Proc) any {
			return Run(p, par, val, L)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for i, v := range res.Values {
			o := v.(*Output)
			if i < 5 && !bytes.Equal(o.Value, val) {
				t.Fatal("validity violated")
			}
		}
		return res.Meter
	}

	failFree := run(nil)
	// FalseDetector gets both faulty processors isolated in generation 0;
	// the remaining ~39 generations then run on 5 active processors.
	attacked := run(adversary.FalseDetector{})
	if attacked.TotalBits() >= failFree.TotalBits() {
		t.Errorf("isolation did not pay off: attacked=%d >= fail-free=%d bits",
			attacked.TotalBits(), failFree.TotalBits())
	}
	// The per-generation match traffic with 5 active processors is
	// 5·4/5·D = 4D vs 7·6/5·D = 8.4D; over ~40 generations the attacked run
	// must land well under 60% of fail-free matching traffic.
	if got, want := attacked.BitsByPrefix("match.sym"), failFree.BitsByPrefix("match.sym"); got*100 >= want*60 {
		t.Errorf("match.sym after isolation = %d, want well under 60%% of %d", got, want)
	}
}

// TestIsolatedProcessorCannotReenter: once isolated, a processor's later
// protocol-conformant behaviour must not restore any trust edges or let it
// rejoin Pmatch (there is no forgiveness in the paper's diagnosis graph).
func TestIsolatedProcessorCannotReenter(t *testing.T) {
	t.Parallel()
	val := bytes.Repeat([]byte{0x11}, 60)
	L := len(val) * 8
	par := Params{N: 7, T: 2, BSB: bsb.Oracle, Lanes: 1, SymBits: 8}
	faulty := []int{5, 6}
	// FalseDetector fires only in generation 0 (member sets keep it from
	// firing later once isolated — its det instances no longer exist), so
	// the faulty processors behave perfectly from generation 1 on.
	outs, _ := runConsensus(t, par, sameInputs(7, val), L, faulty, adversary.FalseDetector{}, 5)
	checkAgreement(t, outs, faulty, val, false)
	g := outs[0].Graph
	if !g.Isolated(5) || !g.Isolated(6) {
		t.Fatal("liars not isolated")
	}
	for _, f := range faulty {
		for j := 0; j < 7; j++ {
			if j != f && g.Trusts(f, j) {
				t.Errorf("isolated processor %d regained trust of %d", f, j)
			}
		}
	}
}

// stepBits wraps the simulator's barrier and records the bits every
// processor charges at each Sync step: the meter's per-step view.
type stepBits struct {
	*sim.Network
	mu   sync.Mutex
	bits map[sim.StepID]int64
}

func (b *stepBits) Sync(p int, step sim.StepID, val any, bits int64, tag string, meta any) []any {
	b.mu.Lock()
	b.bits[step] += bits
	b.mu.Unlock()
	return b.Network.Sync(p, step, val, bits, tag, meta)
}

// runStepBits is sim.Run at seed 1 over a stepBits backend — the same
// barrier, meter and seeds — and returns every processor's output, the
// meter, the per-step bits, and the active-set size after each generation
// as the first honest processor saw it.
func runStepBits(t *testing.T, par Params, val []byte, L int, faulty []int, adv sim.Adversary) ([]*Output, *metrics.Meter, map[sim.StepID]int64, []int) {
	t.Helper()
	const seed = 1
	n := par.N
	isFaulty := make([]bool, n)
	for _, f := range faulty {
		isFaulty[f] = true
	}
	observer := slices.Index(isFaulty, false)
	var active []int
	par.Observer = func(id, g int, info GenInfo) {
		if id == observer {
			active = append(active, info.Graph.Active().Count())
		}
	}
	meter := metrics.NewMeter()
	be := &stepBits{
		Network: sim.NewNetwork(n, -1, isFaulty, adv, meter, sim.LazyRand(seed^0x5DEECE66D)),
		bits:    make(map[sim.StepID]int64),
	}
	outs := make([]*Output, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		p := sim.NewProc(i, n, 0, isFaulty[i], sim.LazyRand(sim.ProcSeed(seed, i)), be)
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := sim.Invoke(p, func(p *sim.Proc) any { return Run(p, par, val, L) })
			outs[i], _ = v.(*Output)
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return outs, meter, be.bits, active
}

// TestMatchListIsolationGolden pins runs in which a processor is isolated
// mid-run — an Equivocator whose diagnosis a TrustLiar turns into
// isolation, and the EdgeMiser's t(t+1)-stage budget attack — to outputs
// recorded before the match-stage batch was cached per active set: decided
// value, metered bits and rounds, generations, diagnosis count and final
// graph. From the generation after each isolation on, the match.M batch
// must charge exactly |active|(|active|-1)·B: the isolated processor has
// left the cached list.
func TestMatchListIsolationGolden(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		n, tf   int
		c       uint
		faulty  []int
		adv     sim.Adversary
		bits    int64
		rounds  int64
		gens    int
		diags   int
		graph   string
		removed []int
	}{
		{"equivocator+trustliar-n7", 7, 2, 8, []int{1, 4},
			adversary.Chain{adversary.Equivocator{Victims: []int{6}, FromGen: 3}, adversary.TrustLiar{}},
			187062, 242, 80, 1,
			"diag{n=7 isolated={1, 4} removedEdges=[(0,1) (0,4) (1,2) (1,3) (1,4) (1,5) (1,6) (2,4) (3,4) (4,5) (4,6)]}",
			[]int{2, 6, 2, 2, 6, 0, 2}},
		{"edgemiser-n7", 7, 2, 8, []int{0, 1}, adversary.EdgeMiser{T: 2},
			223192, 252, 80, 6,
			"diag{n=7 isolated={0, 1} removedEdges=[(0,1) (0,2) (0,3) (0,4) (0,5) (0,6) (1,2) (1,3) (1,4) (1,5) (1,6)]}",
			[]int{6, 5, 2, 2, 2, 0, 0}},
		{"equivocator+trustliar-n16", 16, 5, 16, []int{2, 9, 11},
			adversary.Chain{adversary.Equivocator{Victims: []int{15}, FromGen: 4}, adversary.TrustLiar{}},
			2077504, 62, 20, 1,
			"diag{n=16 isolated={2, 9, 11} removedEdges=[(0,2) (0,9) (0,11) (1,2) (1,9) (1,11) (2,3) (2,4) (2,5) (2,6) (2,7) (2,8) (2,9) (2,10) (2,11) (2,12) (2,13) (2,14) (2,15) (3,9) (3,11) (4,9) (4,11) (5,9) (5,11) (6,9) (6,11) (7,9) (7,11) (8,9) (8,11) (9,10) (9,11) (9,12) (9,13) (9,14) (9,15) (10,11) (11,12) (11,13) (11,14) (11,15)]}",
			[]int{3, 3, 15, 3, 3, 3, 3, 3, 3, 15, 3, 15, 0, 0, 0, 2}},
		{"edgemiser-n16", 16, 5, 8, []int{0, 1, 2, 3, 4}, adversary.EdgeMiser{T: 5},
			7204400, 180, 40, 30,
			"diag{n=16 isolated={0, 1, 2, 3, 4} removedEdges=[(0,1) (0,2) (0,3) (0,4) (0,5) (0,6) (0,7) (0,8) (0,9) (0,10) (0,11) (0,12) (0,13) (0,14) (0,15) (1,2) (1,3) (1,4) (1,5) (1,6) (1,7) (1,8) (1,9) (1,10) (1,11) (1,12) (1,13) (1,14) (1,15) (2,3) (2,4) (2,5) (2,6) (2,7) (2,8) (2,9) (2,10) (2,11) (2,12) (2,13) (2,14) (2,15) (3,4) (3,5) (3,6) (3,7) (3,8) (3,9) (3,10) (3,11) (3,12) (3,13) (3,14) (3,15) (4,5) (4,6) (4,7) (4,8) (4,9) (4,10) (4,11) (4,12) (4,13) (4,14) (4,15)]}",
			[]int{15, 14, 13, 12, 11, 5, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			val := make([]byte, 240)
			for i := range val {
				val[i] = byte(i*37 + 11)
			}
			L := len(val)*8 - 3
			par := Params{N: tc.n, T: tc.tf, Lanes: 1, SymBits: tc.c}
			outs, meter, stepBits, active := runStepBits(t, par, val, L, tc.faulty, tc.adv)
			checkAgreement(t, outs, tc.faulty, nil, false)
			var ref *Output // agreement among the honest is checked above
			for i, o := range outs {
				if !slices.Contains(tc.faulty, i) {
					ref = o
					break
				}
			}
			want := append([]byte(nil), val...)
			want[len(want)-1] &^= 0x07
			if !bytes.Equal(ref.Value, want) {
				t.Errorf("decided %x..., want the common input with the bits past L cleared", ref.Value[:4])
			}
			if got := meter.TotalBits(); got != tc.bits {
				t.Errorf("bits = %d, golden %d", got, tc.bits)
			}
			if got := meter.Rounds(); got != tc.rounds {
				t.Errorf("rounds = %d, golden %d", got, tc.rounds)
			}
			if ref.Generations != tc.gens || ref.DiagnosisRuns != tc.diags {
				t.Errorf("gens/diags = %d/%d, golden %d/%d", ref.Generations, ref.DiagnosisRuns, tc.gens, tc.diags)
			}
			if got := ref.Graph.String(); got != tc.graph {
				t.Errorf("final graph %s,\ngolden %s", got, tc.graph)
			}
			if got := ref.Graph.Removed(); !slices.Equal(got, tc.removed) {
				t.Errorf("removed-edge counts %v, golden %v", got, tc.removed)
			}

			B := bsb.DefaultOracleCost(tc.n)
			for g := 0; g < ref.Generations; g++ {
				A := tc.n
				if g > 0 {
					A = active[g-1]
				}
				if got, want := stepBits[labelsFor(g).matchM], int64(A*(A-1))*B; got != want {
					t.Errorf("g%d: match.M charged %d bits, want %d for %d active processors", g, got, want, A)
				}
			}
			if active[0] != tc.n || active[len(active)-1] == tc.n {
				t.Errorf("active-set sizes %v: want a processor isolated after generation 0", active)
			}
		})
	}
}
