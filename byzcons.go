package byzcons

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"byzcons/internal/bsb"
	"byzcons/internal/consensus"
	"byzcons/internal/mvb"
	"byzcons/internal/sim"
)

// BroadcastKind selects the Broadcast_Single_Bit implementation used for all
// control-information broadcasts.
type BroadcastKind = bsb.Kind

// Available Broadcast_Single_Bit implementations.
const (
	// BroadcastOracle is an ideal error-free broadcast charged at B(n) bits
	// per bit (default 2n², the Θ(n²) cost of the error-free constructions
	// the paper cites). Use it for complexity experiments.
	BroadcastOracle = bsb.Oracle
	// BroadcastEIG is the Lamport-Shostak-Pease oral-messages algorithm:
	// error-free at the optimal t < n/3, messages exponential in t. Use it
	// for end-to-end validation at small n.
	BroadcastEIG = bsb.EIG
	// BroadcastPhaseKing is Berman-Garay-Perry phase-king: error-free with
	// polynomial O(t·n²) bits per bit at resilience t < n/4.
	BroadcastPhaseKing = bsb.PhaseKing
	// BroadcastProb is Section 4's substitution: a probabilistically correct
	// broadcast tolerating t < n/2 that fails (delivers inconsistently) with
	// probability governed by Config.BroadcastEpsilon. With it the consensus
	// tolerates t >= n/3 and errs only when a broadcast instance fails.
	BroadcastProb = bsb.ProbOracle
)

// ParseBroadcastKind converts "oracle", "eig" or "phaseking" to a kind.
func ParseBroadcastKind(s string) (BroadcastKind, error) { return bsb.ParseKind(s) }

// Adversary rewrites the traffic of faulty processors each synchronous step;
// see the adversary types re-exported in adversaries.go, or implement custom
// attacks against the step/metadata surface.
type Adversary = sim.Adversary

// Config are the protocol parameters shared by every processor of a run.
type Config struct {
	// N is the number of processors; T the Byzantine fault bound, t < n/3.
	N, T int
	// SymBits is the Reed-Solomon symbol width c (8 or 16; 0 = auto).
	SymBits uint
	// Lanes fixes the generation size D = (N-2T)*Lanes*SymBits bits;
	// 0 picks the optimal D* of Eq. 2 for the value length.
	Lanes int
	// Window is retired. It used to size a speculative generation pipeline;
	// generations now always run one after another, as in the paper, and
	// Lanes (a larger generation) is the setting that trades rounds for bits
	// (DESIGN §10). Validate accepts 0 and 1 and refuses anything else. The
	// field stays only because the benchmark harness sets it.
	Window int
	// Broadcast selects the 1-bit broadcast implementation (default oracle).
	Broadcast BroadcastKind
	// BroadcastCost overrides the oracle's per-bit cost B(n); 0 = 2n².
	BroadcastCost int64
	// BroadcastEpsilon is the per-receiver failure probability of the
	// BroadcastProb substrate (ignored by the error-free kinds).
	BroadcastEpsilon float64
	// Default is the value decided when honest inputs provably differ
	// (zero-padded/truncated to L bits; nil = all zeros).
	Default []byte
	// Seed drives all randomness (adversary choices, private keys)
	// deterministically. Runs with equal Seed are reproducible.
	Seed int64
	// Trace, if non-nil, receives one line per generation describing
	// protocol progress (diagnosis activity, processor isolation) from the
	// viewpoint of the lowest-id honest processor. Demo/debug aid.
	Trace io.Writer
}

// Validate reports whether the protocol parameters are runnable: processor
// counts, the resilience bound (t < n/3, or t < n/2 under BroadcastProb),
// symbol width and lanes are all checked up front. The error-returning
// surface replaces failures that previously surfaced only mid-run; Open,
// OpenFleet, Consensus, Broadcast and ClusterConsensus all route through it.
func (c Config) Validate() error {
	if c.Window != 0 && c.Window != 1 {
		return fmt.Errorf("byzcons: Window=%d: the generation pipeline is retired, generations run one at a time; set Lanes for fewer, larger generations", c.Window)
	}
	return c.consensusParams().Validate()
}

func (c Config) consensusParams() consensus.Params {
	return consensus.Params{
		N: c.N, T: c.T, SymBits: c.SymBits, Lanes: c.Lanes,
		BSB: c.Broadcast, BSBCost: c.BroadcastCost, BSBEpsilon: c.BroadcastEpsilon,
		Default: c.Default,
	}
}

// Scenario describes the fault pattern of a run.
type Scenario struct {
	// Faulty lists the adversary-controlled processor ids (at most T).
	Faulty []int
	// Behavior injects Byzantine deviations; nil means the faulty processors
	// follow the protocol (fail-free execution).
	Behavior Adversary
}

// Result summarises one simulated run.
type Result struct {
	// Values holds each processor's decided value. Entries of faulty
	// processors are present but meaningless.
	Values [][]byte
	// Honest lists the non-faulty processor ids.
	Honest []int
	// Consistent reports whether all honest processors decided identically
	// (always true for Consensus/Broadcast; may be false for FitziHirt when
	// a hash collision strikes).
	Consistent bool
	// Value is the honest decision when Consistent.
	Value []byte
	// Defaulted reports that honest processors decided the default value
	// because their inputs provably differed.
	Defaulted bool
	// Bits is the total protocol traffic (honest plus protocol-conformant
	// faulty) — the quantity the paper's formulas count. HonestBits excludes
	// faulty senders.
	Bits, HonestBits int64
	// BitsByTag breaks Bits down by protocol stage
	// (match.sym, match.M, check.det, diag.sym, diag.trust, ...).
	BitsByTag map[string]int64
	// Rounds is the number of synchronous communication rounds executed.
	Rounds int64
	// Generations and DiagnosisRuns count Algorithm 1 progress
	// (DiagnosisRuns <= T(T+1) by Theorem 1).
	Generations, DiagnosisRuns int
	// Isolated lists processors identified as faulty and cut off by the
	// diagnosis graph.
	Isolated []int
}

func (c Config) validateInputs(inputs [][]byte, L int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(inputs) != c.N {
		return fmt.Errorf("byzcons: got %d inputs for n=%d processors", len(inputs), c.N)
	}
	if L < 1 {
		return fmt.Errorf("byzcons: need L >= 1 bit, got %d", L)
	}
	need := (L + 7) / 8
	for i, in := range inputs {
		if len(in) < need {
			return fmt.Errorf("byzcons: input %d has %d bytes, need %d for L=%d bits", i, len(in), need, L)
		}
	}
	return nil
}

// Consensus runs the paper's Algorithm 1: every processor starts with its
// L-bit input value (inputs[i], at least ceil(L/8) bytes) and all honest
// processors decide a common value — the common input if they all started
// equal. It is deterministic and error-free for any Behavior, provided
// len(Faulty) <= T < N/3.
func Consensus(cfg Config, inputs [][]byte, L int, sc Scenario) (*Result, error) {
	if err := cfg.validateInputs(inputs, L); err != nil {
		return nil, err
	}
	par := cfg.consensusParams()
	if cfg.Trace != nil {
		par.Observer = traceObserver(cfg, sc)
	}
	run := sim.Run(sim.RunConfig{N: cfg.N, Faulty: sc.Faulty, Adversary: sc.Behavior, Seed: cfg.Seed},
		func(p *sim.Proc) any {
			return consensus.Run(p, par, inputs[p.ID], L)
		})
	if run.Err != nil {
		return nil, run.Err
	}
	return buildResult(cfg, sc, run, consensusSummary(cfg.N))
}

// consensusSummary extracts a consensus.Output into the shared result
// summary (used by both the simulated and networked consensus entry points).
func consensusSummary(n int) func(any) outSummary {
	return func(v any) outSummary {
		o := v.(*consensus.Output)
		var iso []int
		for i := 0; i < n; i++ {
			if o.Graph.Isolated(i) {
				iso = append(iso, i)
			}
		}
		return outSummary{
			value: o.Value, defaulted: o.Defaulted, gens: o.Generations,
			diags: o.DiagnosisRuns, iso: iso,
		}
	}
}

// Broadcast runs the Section 4 extension: the source processor broadcasts
// its L-bit value (the other entries of inputs are ignored; only
// inputs[source] is consulted). All honest processors output a common value,
// equal to the source's if the source is honest.
func Broadcast(cfg Config, source int, value []byte, L int, sc Scenario) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if source < 0 || source >= cfg.N {
		return nil, fmt.Errorf("byzcons: source %d out of range [0,%d)", source, cfg.N)
	}
	if L < 1 || len(value) < (L+7)/8 {
		return nil, fmt.Errorf("byzcons: value too short for L=%d bits", L)
	}
	par := mvb.Params{Source: source, Consensus: cfg.consensusParams()}
	run := sim.Run(sim.RunConfig{N: cfg.N, Faulty: sc.Faulty, Adversary: sc.Behavior, Seed: cfg.Seed},
		func(p *sim.Proc) any {
			return mvb.Run(p, par, value, L)
		})
	if run.Err != nil {
		return nil, run.Err
	}
	return buildResult(cfg, sc, run, func(v any) outSummary {
		o := v.(*mvb.Output)
		return outSummary{
			value: o.Value, defaulted: o.Defaulted, gens: o.Generations,
			diags: o.DiagnosisRuns,
		}
	})
}

// traceObserver renders per-generation progress lines from the viewpoint of
// the lowest-id honest processor (all honest views are provably identical).
func traceObserver(cfg Config, sc Scenario) func(procID, gen int, info consensus.GenInfo) {
	isFaulty := make(map[int]bool, len(sc.Faulty))
	for _, f := range sc.Faulty {
		isFaulty[f] = true
	}
	reporter := -1
	for i := 0; i < cfg.N; i++ {
		if !isFaulty[i] {
			reporter = i
			break
		}
	}
	return func(procID, gen int, info consensus.GenInfo) {
		if procID != reporter {
			return
		}
		var iso []int
		for v := 0; v < cfg.N; v++ {
			if info.Graph.Isolated(v) {
				iso = append(iso, v)
			}
		}
		switch {
		case info.Defaulted:
			fmt.Fprintf(cfg.Trace, "g%-4d no Pmatch: honest inputs differ; deciding default\n", gen)
		case info.Diagnosed:
			fmt.Fprintf(cfg.Trace, "g%-4d inconsistency detected -> diagnosis; isolated=%v\n", gen, iso)
		default:
			fmt.Fprintf(cfg.Trace, "g%-4d clean (matching+checking only)\n", gen)
		}
	}
}

// outSummary is one processor's extracted protocol output.
type outSummary struct {
	value       []byte
	defaulted   bool
	gens, diags int
	iso         []int
}

// buildResult assembles the public Result from per-processor outputs. Each
// value is copied: a processor's output may share storage with its input
// (consensus.Output), and a Result must never alias the caller's inputs.
func buildResult(cfg Config, sc Scenario, run *sim.RunResult,
	extract func(any) outSummary) (*Result, error) {
	isFaulty := make(map[int]bool, len(sc.Faulty))
	for _, f := range sc.Faulty {
		isFaulty[f] = true
	}
	res := &Result{
		Values:     make([][]byte, cfg.N),
		Consistent: true,
		Bits:       run.Meter.TotalBits(),
		HonestBits: run.Meter.HonestBits(),
		Rounds:     run.Meter.Rounds(),
		BitsByTag:  make(map[string]int64),
	}
	for tag, tally := range run.Meter.Snapshot() {
		res.BitsByTag[tag] = tally.Total()
	}
	first := true
	for i, v := range run.Values {
		if v == nil {
			if !isFaulty[i] {
				return nil, fmt.Errorf("byzcons: honest processor %d produced no output", i)
			}
			continue
		}
		sum := extract(v)
		sum.value = bytes.Clone(sum.value)
		res.Values[i] = sum.value
		if isFaulty[i] {
			continue
		}
		res.Honest = append(res.Honest, i)
		if first {
			res.Value, res.Defaulted = sum.value, sum.defaulted
			res.Generations, res.DiagnosisRuns = sum.gens, sum.diags
			res.Isolated = sum.iso
			first = false
			continue
		}
		if !bytes.Equal(sum.value, res.Value) || sum.defaulted != res.Defaulted {
			res.Consistent = false
			res.Value = nil
		}
	}
	if first {
		return nil, errors.New("byzcons: no honest processors produced output")
	}
	return res, nil
}
