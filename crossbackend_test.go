package byzcons_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"byzcons"
)

// TestPipelineCrossBackendAgreement: the simulator, the in-process bus and
// the loopback TCP cluster must decide bit-identically — value, generation
// count, diagnosis progress, isolated set, metered bits and rounds — under
// the gallery adversaries, including an equivocation confined to two
// generations in the middle of the run.
func TestPipelineCrossBackendAgreement(t *testing.T) {
	t.Parallel()
	const n, tf = 7, 2
	L := 32768
	if testing.Short() {
		L = 16384
	}
	val := make([]byte, L/8)
	for i := range val {
		val[i] = byte(0x41 + i%26)
	}
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}

	scenarios := []struct {
		name string
		sc   byzcons.Scenario
	}{
		{"equivocator", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Equivocator{}}},
		{"silent", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.Silent{}}},
		{"matchliar", byzcons.Scenario{Faulty: []int{1, 4}, Behavior: byzcons.MatchLiar{}}},
		// Clean generations on both sides of the attacked ones: the
		// equivocation at generations 6..7 triggers a diagnosis mid-run.
		{"midwindow-squash", byzcons.Scenario{Faulty: []int{1, 4},
			Behavior: byzcons.Equivocator{FromGen: 6, ToGen: 7}}},
	}

	for _, tc := range scenarios {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := byzcons.Config{N: n, T: tf, Seed: 3}
			var results []*byzcons.ClusterResult
			for _, kind := range []byzcons.TransportKind{
				byzcons.TransportSim, byzcons.TransportBus, byzcons.TransportTCP,
			} {
				res, err := byzcons.ClusterConsensus(cfg, inputs, L, tc.sc, kind)
				if err != nil {
					t.Fatalf("%v backend: %v", kind, err)
				}
				if !res.Consistent {
					t.Fatalf("%v backend: inconsistent honest decisions", kind)
				}
				results = append(results, res)
			}
			ref := results[0]
			if !bytes.Equal(ref.Value, val) {
				t.Errorf("decided %x..., want the common input", ref.Value[:4])
			}
			for _, res := range results[1:] {
				if !bytes.Equal(res.Value, ref.Value) || res.Defaulted != ref.Defaulted {
					t.Errorf("%s decision diverges from %s", res.Transport, ref.Transport)
				}
				if res.Generations != ref.Generations || res.DiagnosisRuns != ref.DiagnosisRuns {
					t.Errorf("%s progress %d/%d diverges from %s %d/%d", res.Transport,
						res.Generations, res.DiagnosisRuns, ref.Transport, ref.Generations, ref.DiagnosisRuns)
				}
				if !reflect.DeepEqual(res.Isolated, ref.Isolated) {
					t.Errorf("%s isolated set %v diverges from %s %v",
						res.Transport, res.Isolated, ref.Transport, ref.Isolated)
				}
				if res.Bits != ref.Bits || res.Rounds != ref.Rounds {
					t.Errorf("%s meters %d bits/%d rounds diverge from %s %d/%d", res.Transport,
						res.Bits, res.Rounds, ref.Transport, ref.Bits, ref.Rounds)
				}
			}
		})
	}
}

// TestPipelineWindowOneClusterUnchanged pins that the retired Window field
// set to 1 changes nothing: over the bus the run is the exact sequential
// protocol, identical decisions and identical meters against the simulator.
func TestPipelineWindowOneClusterUnchanged(t *testing.T) {
	t.Parallel()
	const n, tf, L = 4, 1, 8192
	val := bytes.Repeat([]byte{0x5C}, L/8)
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = val
	}
	cfg := byzcons.Config{N: n, T: tf, Window: 1, Seed: 7}
	sc := byzcons.Scenario{Faulty: []int{2}, Behavior: byzcons.Equivocator{}}
	simRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportSim)
	if err != nil {
		t.Fatal(err)
	}
	busRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportBus)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simRes.Value, busRes.Value) || simRes.Bits != busRes.Bits ||
		simRes.Rounds != busRes.Rounds {
		t.Errorf("Window=1 bus diverges from simulator: %d/%d vs %d/%d",
			busRes.Bits, busRes.Rounds, simRes.Bits, simRes.Rounds)
	}
}

// TestWindowValidation pins the retired Config.Window field: 0 and 1 open
// and run (generations are sequential either way); anything else is refused
// at every validating surface with an error that points at Lanes, the
// setting that took the pipeline's place.
func TestWindowValidation(t *testing.T) {
	t.Parallel()
	for _, w := range []int{0, 1} {
		cfg := byzcons.SessionConfig{Config: byzcons.Config{N: 4, T: 1, Window: w}, Policy: manualPolicy()}
		if err := (byzcons.FleetConfig{SessionConfig: cfg}).Validate(); err != nil {
			t.Errorf("Window=%d refused: %v", w, err)
		}
		s, err := byzcons.Open(cfg)
		if err != nil {
			t.Errorf("Window=%d: Open: %v", w, err)
			continue
		}
		s.Close()
	}
	for _, w := range []int{-1, 2, 4} {
		sc := byzcons.SessionConfig{Config: byzcons.Config{N: 4, T: 1, Window: w}}
		for name, err := range map[string]error{
			"Config":        sc.Config.Validate(),
			"SessionConfig": sc.Validate(),
			"FleetConfig":   byzcons.FleetConfig{SessionConfig: sc, Shards: 2}.Validate(),
		} {
			if err == nil || !strings.Contains(err.Error(), "Lanes") {
				t.Errorf("%s.Validate(Window=%d) = %v, want a refusal naming Lanes", name, w, err)
			}
		}
		if _, err := byzcons.Open(sc); err == nil {
			t.Errorf("Open accepted Window=%d", w)
		}
	}
}
