package byzcons_test

import (
	"bytes"
	"testing"

	"byzcons"
)

func equalInputs(n int, val []byte) [][]byte {
	in := make([][]byte, n)
	for i := range in {
		in[i] = val
	}
	return in
}

func TestConsensusFailFree(t *testing.T) {
	val := []byte("all processors hold this exact value")
	L := len(val) * 8
	cfg := byzcons.Config{N: 7, T: 2}
	res, err := byzcons.Consensus(cfg, equalInputs(7, val), L, byzcons.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || res.Defaulted {
		t.Fatalf("consistent=%v defaulted=%v", res.Consistent, res.Defaulted)
	}
	if !bytes.Equal(res.Value, val) {
		t.Fatalf("decided %q, want %q", res.Value, val)
	}
	if res.Bits <= 0 || res.Rounds <= 0 || len(res.Honest) != 7 {
		t.Errorf("suspicious accounting: bits=%d rounds=%d honest=%v", res.Bits, res.Rounds, res.Honest)
	}
	if res.BitsByTag["match.sym"] == 0 || res.BitsByTag["match.M"] == 0 {
		t.Errorf("missing stage tags: %v", res.BitsByTag)
	}
	if res.DiagnosisRuns != 0 {
		t.Errorf("diagnosis ran %d times fail-free", res.DiagnosisRuns)
	}
}

func TestConsensusUnderAttack(t *testing.T) {
	val := bytes.Repeat([]byte{0xBE, 0xEF}, 32)
	L := len(val) * 8
	cfg := byzcons.Config{N: 7, T: 2, Seed: 5}
	sc := byzcons.Scenario{
		Faulty: []int{1, 4},
		Behavior: byzcons.Attacks{
			byzcons.Equivocator{Victims: []int{6}},
			byzcons.TrustLiar{},
		},
	}
	res, err := byzcons.Consensus(cfg, equalInputs(7, val), L, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || !bytes.Equal(res.Value, val) {
		t.Fatalf("error-free guarantee violated: consistent=%v", res.Consistent)
	}
	if res.DiagnosisRuns == 0 {
		t.Error("attack triggered no diagnosis")
	}
	if res.DiagnosisRuns > 2*3 {
		t.Errorf("diagnosis ran %d > t(t+1)=6 times", res.DiagnosisRuns)
	}
}

func TestConsensusValidation(t *testing.T) {
	cfg := byzcons.Config{N: 4, T: 1}
	if _, err := byzcons.Consensus(cfg, make([][]byte, 3), 8, byzcons.Scenario{}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := byzcons.Consensus(cfg, equalInputs(4, []byte{1}), 0, byzcons.Scenario{}); err == nil {
		t.Error("L=0 accepted")
	}
	if _, err := byzcons.Consensus(cfg, equalInputs(4, []byte{1}), 64, byzcons.Scenario{}); err == nil {
		t.Error("short input accepted")
	}
	bad := byzcons.Config{N: 6, T: 2}
	if _, err := byzcons.Consensus(bad, equalInputs(6, []byte{1}), 8, byzcons.Scenario{}); err == nil {
		t.Error("t >= n/3 accepted")
	}
}

func TestBroadcastHonestSource(t *testing.T) {
	val := bytes.Repeat([]byte{0xAA, 0x55}, 24)
	L := len(val) * 8
	cfg := byzcons.Config{N: 7, T: 2, Seed: 3}
	res, err := byzcons.Broadcast(cfg, 3, val, L, byzcons.Scenario{
		Faulty:   []int{0, 6},
		Behavior: byzcons.RandomByz{P: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || !bytes.Equal(res.Value, val) {
		t.Fatalf("broadcast validity violated (consistent=%v)", res.Consistent)
	}
}

func TestBroadcastFaultySourceStaysConsistent(t *testing.T) {
	val := bytes.Repeat([]byte{0x42}, 24)
	L := len(val) * 8
	for seed := int64(0); seed < 6; seed++ {
		cfg := byzcons.Config{N: 7, T: 2, Seed: seed}
		res, err := byzcons.Broadcast(cfg, 2, val, L, byzcons.Scenario{
			Faulty:   []int{2, 5},
			Behavior: byzcons.RandomByz{P: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Consistent {
			t.Fatalf("seed %d: faulty source broke broadcast consistency", seed)
		}
	}
}

func TestNaiveBitwiseAgrees(t *testing.T) {
	val := bytes.Repeat([]byte{0xC7}, 16)
	L := len(val) * 8
	cfg := byzcons.NaiveConfig{N: 7, T: 2, Seed: 9}
	res, err := byzcons.NaiveBitwise(cfg, equalInputs(7, val), L, byzcons.Scenario{Faulty: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || !bytes.Equal(res.Value, val) {
		t.Fatal("naive baseline broke validity")
	}
	want := byzcons.PredictNaive(cfg, int64(L))
	if res.Bits != want {
		t.Errorf("naive bits = %d, want exactly %d", res.Bits, want)
	}
}

func TestFitziHirtAgreesWithLargeKappa(t *testing.T) {
	val := bytes.Repeat([]byte{0x3D, 0x11}, 32)
	L := len(val) * 8
	cfg := byzcons.FHConfig{N: 7, T: 2, Kappa: 16, Seed: 4}
	res, err := byzcons.FitziHirt(cfg, equalInputs(7, val), L, byzcons.Scenario{Faulty: []int{5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || !bytes.Equal(res.Value, val) {
		t.Fatal("FH06 baseline failed on equal inputs")
	}
}

func TestPredictionsArePositiveAndOrdered(t *testing.T) {
	n, tf := 16, 5
	L := int64(1 << 20)
	B := byzcons.DefaultBroadcastCost(n)
	D := byzcons.OptimalD(n, tf, 8, L, B)
	if D <= 0 {
		t.Fatalf("OptimalD = %d", D)
	}
	ccon := byzcons.PredictCcon(n, tf, L, D, B)
	lead := byzcons.PredictLeading(n, tf, L)
	naive := byzcons.PredictNaive(byzcons.NaiveConfig{N: n, T: tf}, L)
	if ccon <= lead {
		t.Errorf("Ccon %d should exceed its leading term %d", ccon, lead)
	}
	if ccon >= naive {
		t.Errorf("for large L ours (%d) must beat naive n²L (%d)", ccon, naive)
	}
	sc := byzcons.PredictStageCost(n, tf, D, B)
	if sc.FailFree() <= 0 || sc.Diagnosis() <= 0 {
		t.Error("stage costs must be positive")
	}
}

func TestParseBroadcastKind(t *testing.T) {
	k, err := byzcons.ParseBroadcastKind("eig")
	if err != nil || k != byzcons.BroadcastEIG {
		t.Errorf("ParseBroadcastKind(eig) = %v, %v", k, err)
	}
	if _, err := byzcons.ParseBroadcastKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestBeyondThirdViaPublicAPI(t *testing.T) {
	// Section 4: t >= n/3 with the probabilistic broadcast substitute.
	val := bytes.Repeat([]byte{0x9C}, 24)
	L := len(val) * 8
	cfg := byzcons.Config{N: 7, T: 3, Broadcast: byzcons.BroadcastProb, Seed: 2}
	res, err := byzcons.Consensus(cfg, equalInputs(7, val), L, byzcons.Scenario{
		Faulty:   []int{1, 3, 5},
		Behavior: byzcons.RandomByz{P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent || !bytes.Equal(res.Value, val) {
		t.Fatal("t >= n/3 with perfect substitute broadcast must stay correct")
	}
	// Error-free kinds must refuse t >= n/3.
	bad := byzcons.Config{N: 7, T: 3}
	if _, err := byzcons.Consensus(bad, equalInputs(7, val), L, byzcons.Scenario{}); err == nil {
		t.Error("t >= n/3 accepted with error-free broadcast")
	}
}

func TestBroadcastValidation(t *testing.T) {
	cfg := byzcons.Config{N: 4, T: 1}
	if _, err := byzcons.Broadcast(cfg, 9, []byte{1}, 8, byzcons.Scenario{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := byzcons.Broadcast(cfg, 0, []byte{1}, 64, byzcons.Scenario{}); err == nil {
		t.Error("short value accepted")
	}
}

func TestFitziHirtValidation(t *testing.T) {
	cfg := byzcons.FHConfig{N: 6, T: 2}
	if _, err := byzcons.FitziHirt(cfg, equalInputs(6, []byte{1}), 8, byzcons.Scenario{}); err == nil {
		t.Error("t >= n/3 accepted by FH06 baseline")
	}
	bad := byzcons.FHConfig{N: 4, T: 1, Kappa: 20}
	if _, err := byzcons.FitziHirt(bad, equalInputs(4, []byte{1}), 8, byzcons.Scenario{}); err == nil {
		t.Error("kappa > 16 accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	val := bytes.Repeat([]byte{0x77}, 20)
	L := len(val) * 8
	run := func() *byzcons.Result {
		cfg := byzcons.Config{N: 7, T: 2, Seed: 123}
		res, err := byzcons.Consensus(cfg, equalInputs(7, val), L, byzcons.Scenario{
			Faulty:   []int{0, 3},
			Behavior: byzcons.RandomByz{P: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Bits != b.Bits || a.Rounds != b.Rounds || a.DiagnosisRuns != b.DiagnosisRuns {
		t.Errorf("same seed produced different executions: %+v vs %+v", a, b)
	}
}

// TestResultsDoNotAliasInputs pins the public boundary: a processor that
// decides its own L-bit input may return that input's storage as its value
// (consensus.Output), but Consensus, Broadcast and ClusterConsensus copy, so
// a caller that reuses its input buffers after the call cannot rewrite a
// result.
func TestResultsDoNotAliasInputs(t *testing.T) {
	const n = 7
	cfg := byzcons.Config{N: n, T: 2}
	val := []byte("a value of exactly L bits, shared by every processor")
	L := len(val) * 8
	fresh := func() [][]byte {
		in := make([][]byte, n)
		for i := range in {
			in[i] = bytes.Clone(val)
		}
		return in
	}
	check := func(t *testing.T, res *byzcons.Result, scribble func()) {
		t.Helper()
		scribble()
		if !bytes.Equal(res.Value, val) {
			t.Errorf("Value changed with the inputs: %q", res.Value)
		}
		for i, v := range res.Values {
			if !bytes.Equal(v, val) {
				t.Errorf("Values[%d] changed with the inputs: %q", i, v)
			}
		}
	}
	scribbleAll := func(in [][]byte) func() {
		return func() {
			for _, b := range in {
				for j := range b {
					b[j] = '#'
				}
			}
		}
	}

	t.Run("Consensus", func(t *testing.T) {
		in := fresh()
		res, err := byzcons.Consensus(cfg, in, L, byzcons.Scenario{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, scribbleAll(in))
	})
	t.Run("Broadcast", func(t *testing.T) {
		src := bytes.Clone(val)
		res, err := byzcons.Broadcast(cfg, 0, src, L, byzcons.Scenario{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, scribbleAll([][]byte{src}))
	})
	for _, kind := range []byzcons.TransportKind{byzcons.TransportSim, byzcons.TransportBus} {
		t.Run("ClusterConsensus/"+kind.String(), func(t *testing.T) {
			in := fresh()
			res, err := byzcons.ClusterConsensus(cfg, in, L, byzcons.Scenario{}, kind)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res.Result, scribbleAll(in))
		})
	}
}
