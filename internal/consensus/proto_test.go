package consensus

import (
	"bytes"
	"fmt"
	"testing"

	"byzcons/internal/bsb"
	"byzcons/internal/gf"
	"byzcons/internal/metrics"
	"byzcons/internal/rs"
	"byzcons/internal/sim"
)

// runConsensus executes one simulated run and returns the per-processor
// outputs (nil for entries whose body did not produce an Output).
func runConsensus(t *testing.T, par Params, inputs [][]byte, L int, faulty []int, adv sim.Adversary, seed int64) ([]*Output, *metrics.Meter) {
	t.Helper()
	res := sim.Run(sim.RunConfig{N: par.N, Faulty: faulty, Adversary: adv, Seed: seed}, func(p *sim.Proc) any {
		return Run(p, par, inputs[p.ID], L)
	})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	outs := make([]*Output, par.N)
	for i, v := range res.Values {
		if o, ok := v.(*Output); ok {
			outs[i] = o
		}
	}
	return outs, res.Meter
}

// checkAgreement asserts consistency and (if allEqual) validity among honest
// processors, plus that all honest processors hold identical diagnosis graphs.
func checkAgreement(t *testing.T, outs []*Output, faulty []int, want []byte, wantDefault bool) {
	t.Helper()
	isFaulty := make(map[int]bool)
	for _, f := range faulty {
		isFaulty[f] = true
	}
	var ref *Output
	for i, o := range outs {
		if isFaulty[i] {
			continue
		}
		if o == nil {
			t.Fatalf("honest processor %d returned no output", i)
		}
		if ref == nil {
			ref = o
			continue
		}
		if !bytes.Equal(o.Value, ref.Value) {
			t.Fatalf("consistency violated: proc %d value %x != %x", i, o.Value, ref.Value)
		}
		if o.Defaulted != ref.Defaulted {
			t.Fatalf("consistency violated: proc %d defaulted=%v, ref=%v", i, o.Defaulted, ref.Defaulted)
		}
		if !o.Graph.Equal(ref.Graph) {
			t.Fatalf("diagnosis graphs diverged between honest processors")
		}
	}
	if ref == nil {
		t.Fatal("no honest processors")
	}
	if wantDefault != ref.Defaulted {
		t.Fatalf("defaulted = %v, want %v", ref.Defaulted, wantDefault)
	}
	if want != nil && !ref.Defaulted && !bytes.Equal(ref.Value, want) {
		t.Fatalf("validity violated: decided %x, want %x", ref.Value, want)
	}
}

func sameInputs(n int, val []byte) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = val
	}
	return in
}

func TestFailFreeAllEqual(t *testing.T) {
	t.Parallel()
	val := []byte("the quick brown fox jumps over the lazy dog, twice over!")
	L := len(val) * 8
	cases := []struct {
		n, t int
		kind bsb.Kind
	}{
		{4, 1, bsb.Oracle},
		{7, 2, bsb.Oracle},
		{10, 3, bsb.Oracle},
		{13, 4, bsb.Oracle},
		{4, 1, bsb.EIG},
		{7, 2, bsb.EIG},
		{5, 1, bsb.PhaseKing},
		{9, 2, bsb.PhaseKing},
		{1, 0, bsb.Oracle},
		{3, 0, bsb.Oracle},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_t%d_%v", tc.n, tc.t, tc.kind), func(t *testing.T) {
			par := Params{N: tc.n, T: tc.t, BSB: tc.kind}
			outs, _ := runConsensus(t, par, sameInputs(tc.n, val), L, nil, nil, 1)
			checkAgreement(t, outs, nil, val, false)
			for i, o := range outs {
				if o.DiagnosisRuns != 0 {
					t.Errorf("proc %d ran %d diagnosis stages in a fail-free run", i, o.DiagnosisRuns)
				}
			}
		})
	}
}

func TestPassiveFaultyStillValid(t *testing.T) {
	t.Parallel()
	// Faulty processors that follow the protocol (Passive adversary) must not
	// disturb validity.
	val := bytes.Repeat([]byte{0xA5, 0x3C}, 40)
	L := len(val) * 8
	par := Params{N: 7, T: 2, BSB: bsb.Oracle}
	outs, _ := runConsensus(t, par, sameInputs(7, val), L, []int{2, 5}, nil, 7)
	checkAgreement(t, outs, []int{2, 5}, val, false)
}

func TestDifferingInputsDefault(t *testing.T) {
	t.Parallel()
	// With every processor holding a different value there can be no Pmatch,
	// so all honest processors must decide the default, consistently.
	n := 7
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte{byte(i + 1)}, 32)
	}
	par := Params{N: n, T: 2, BSB: bsb.Oracle}
	outs, _ := runConsensus(t, par, inputs, 32*8, nil, nil, 3)
	checkAgreement(t, outs, nil, nil, true)
	zero := make([]byte, 32)
	if !bytes.Equal(outs[0].Value, zero) {
		t.Fatalf("default value = %x, want all-zero", outs[0].Value)
	}
}

func TestMultiGeneration(t *testing.T) {
	t.Parallel()
	// Force many generations with Lanes=1 and verify the value survives
	// the split/reassemble round trip.
	val := bytes.Repeat([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 16)
	L := len(val) * 8
	par := Params{N: 7, T: 2, BSB: bsb.Oracle, Lanes: 1, SymBits: 8}
	outs, _ := runConsensus(t, par, sameInputs(7, val), L, nil, nil, 11)
	checkAgreement(t, outs, nil, val, false)
	wantGens := (L + par.D() - 1) / par.D()
	if outs[0].Generations != wantGens {
		t.Fatalf("generations = %d, want %d", outs[0].Generations, wantGens)
	}
}

func TestNonByteAlignedLength(t *testing.T) {
	t.Parallel()
	// L that is not a multiple of 8 or D.
	val := []byte{0xFF, 0xF0}
	L := 12
	par := Params{N: 4, T: 1, BSB: bsb.Oracle}
	outs, _ := runConsensus(t, par, sameInputs(4, val), L, nil, nil, 5)
	want := []byte{0xFF, 0xF0}
	checkAgreement(t, outs, nil, want, false)
}

// TestNonMemberOneShortOfOwnCodeword pins the bound of a non-member's
// shortcut: it keeps its own input without decoding only when at least k of
// Pmatch's words equal its own codeword's symbols. Here processor 3's first
// generation differs from everyone else's in a way that leaves its codeword
// equal to theirs at exactly k-1 = 1 Pmatch position, so it must decode —
// and decide the others' value.
func TestNonMemberOneShortOfOwnCodeword(t *testing.T) {
	t.Parallel()
	const n, tf = 4, 1
	par := Params{N: n, T: tf, BSB: bsb.Oracle, Lanes: 1, SymBits: 8}
	common := []byte{0x12, 0x34, 0x56, 0x78}
	// Adding d to both coefficients of the first generation's polynomial
	// leaves its value at x_0 = 1 (position 0) unchanged, and no other.
	odd := bytes.Clone(common)
	odd[0] ^= 0x5A
	odd[1] ^= 0x5A

	field, err := gf.New(8)
	if err != nil {
		t.Fatal(err)
	}
	code, err := rs.New(field, n, n-2*tf)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := rs.NewInterleaved(code, 1)
	if err != nil {
		t.Fatal(err)
	}
	wa := ic.Encode([]gf.Sym{gf.Sym(common[0]), gf.Sym(common[1])})
	wb := ic.Encode([]gf.Sym{gf.Sym(odd[0]), gf.Sym(odd[1])})
	equal := 0
	for j := 0; j < n-tf; j++ { // Pmatch is {0, 1, 2}
		if rs.WordsEqual(wa[j], wb[j]) {
			equal++
		}
	}
	if equal != code.K-1 {
		t.Fatalf("construction: the odd codeword equals the common one at %d Pmatch positions, want k-1 = %d", equal, code.K-1)
	}

	inputs := [][]byte{common, common, common, odd}
	outs, _ := runConsensus(t, par, inputs, len(common)*8, nil, nil, 1)
	checkAgreement(t, outs, nil, common, false)
}
