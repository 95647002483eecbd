// Package consensus implements the paper's primary contribution: Algorithm 1,
// the deterministic error-free multi-valued Byzantine consensus protocol, and
// the generation driver that applies it to an L-bit value in L/D parts.
//
// Per generation of D = (n-2t)·m·c bits (m = interleaving lanes, c = bits per
// Reed-Solomon symbol) the protocol runs three stages:
//
//  1. Matching: every processor encodes its generation input with the
//     (n, n-2t) code C2t, sends its own codeword symbol to every trusted
//     processor, compares received symbols with its own codeword, and
//     broadcasts the resulting match vector M with Broadcast_Single_Bit.
//     From the (identical) broadcast vectors everyone deterministically
//     computes a set Pmatch of n-t processors whose members mutually match;
//     its honest members are then guaranteed to hold identical inputs
//     (Lemma 2). No Pmatch ⇒ honest inputs differ ⇒ decide default.
//  2. Checking: processors outside Pmatch verify that the symbols received
//     from Pmatch lie on one codeword and broadcast a 1-bit Detected flag.
//     If nobody detects, everyone decodes and decides (Lemma 3).
//  3. Diagnosis: on detection, Pmatch members re-broadcast their symbol with
//     Broadcast_Single_Bit (R#), everyone broadcasts whom they still trust,
//     and the diagnosis graph loses at least one edge incident to a faulty
//     processor (Lemma 4) — never an honest-honest edge. Vertices that lose
//     more than t edges are provably faulty and are isolated. The decision
//     is decoded from R# restricted to a clique Pdecide of n-2t mutually
//     trusting members (Lemma 5).
package consensus

import (
	"fmt"
	"math"
	"time"

	"byzcons/internal/bsb"
	"byzcons/internal/diag"
)

// Params configures one consensus execution.
type Params struct {
	N int // number of processors
	T int // max Byzantine faults, t < n/3

	// SymBits is c, the Reed-Solomon symbol width in bits (8 or 16; the code
	// needs n <= 2^c - 1). 0 selects 8, or 16 when n > 255.
	SymBits uint

	// Lanes is the interleaving depth m, making the generation size
	// D = (n-2t)*m*c bits. 0 selects the optimal D* of Eq. 2 for the given L
	// and broadcaster cost.
	Lanes int

	// BSB selects the Broadcast_Single_Bit implementation.
	BSB bsb.Kind

	// BSBCost overrides the oracle broadcaster's per-bit cost B(n)
	// (0 = default 2n²). Ignored for EIG and PhaseKing.
	BSBCost int64

	// BSBEpsilon is the per-receiver bit-flip probability of the ProbOracle
	// broadcaster (Section 4: substituting a probabilistically correct
	// broadcast). Ignored for other kinds.
	BSBEpsilon float64

	// Default is the value decided when no Pmatch exists (honest inputs
	// provably differ). It is truncated/zero-padded to the input length L.
	// nil means all-zero.
	Default []byte

	// Observer, if non-nil, is called after every generation with a snapshot
	// of this processor's protocol state. It is test/trace instrumentation,
	// not protocol state: it must not influence behaviour.
	Observer func(procID, gen int, info GenInfo)

	// PhaseTimer, if non-nil, receives per-generation wall-clock phase
	// durations, measured at processor 0 only (the same single-tally
	// convention as the runtime's round meter, so n processors do not
	// record the same wall-clock n times). The four phases partition a
	// generation's duration without overlap: Broadcast and RS are the time
	// inside Broadcast_Single_Bit and Reed-Solomon kernel calls, Match and
	// Diagnosis the stage-1/2 and stage-3 residuals. The instances of a
	// batch invoke it concurrently. Instrumentation only: it must not
	// influence behaviour.
	PhaseTimer func(procID, gen int, ph Phase, d time.Duration)
}

// Phase names one timed slice of a generation's wall-clock, reported
// through Params.PhaseTimer. The four phases are disjoint and sum to the
// generation's total duration.
type Phase int

const (
	// PhaseMatch is the matching+checking residual: symbol exchange rounds,
	// match-vector assembly, clique search — stages 1-2 minus the time spent
	// inside broadcast and RS calls.
	PhaseMatch Phase = iota
	// PhaseBroadcast is the time inside Broadcast_Single_Bit calls, across
	// all stages.
	PhaseBroadcast
	// PhaseRS is the time inside Reed-Solomon kernel calls
	// (Encode/Decode/Consistent), across all stages.
	PhaseRS
	// PhaseDiagnosis is the stage-3 residual: trust bookkeeping, graph
	// updates, Pdecide search — minus broadcast and RS time.
	PhaseDiagnosis
	// NumPhases bounds the enum for array-indexed accumulators.
	NumPhases
)

// String names the phase for traces and expositions.
func (ph Phase) String() string {
	switch ph {
	case PhaseMatch:
		return "match"
	case PhaseBroadcast:
		return "broadcast"
	case PhaseRS:
		return "rs"
	case PhaseDiagnosis:
		return "diagnosis"
	}
	return fmt.Sprintf("phase(%d)", int(ph))
}

// GenInfo is the per-generation snapshot passed to Params.Observer.
type GenInfo struct {
	Defaulted bool        // this generation ended the run with the default
	Diagnosed bool        // the diagnosis stage ran in this generation
	Graph     *diag.Graph // clone of the diagnosis graph after the generation
}

// Validate checks the parameters without running a protocol: it normalizes
// against a nominal 8-bit value length, so every length-independent
// constraint (n, the resilience bound, symbol width, lanes) is
// checked up front by the public configuration surface.
func (par Params) Validate() error {
	_, err := par.normalized(8)
	return err
}

// normalized fills derived defaults and validates; L is the value length in
// bits (used for auto lane selection).
func (par Params) normalized(L int) (Params, error) {
	if par.N < 1 {
		return par, fmt.Errorf("consensus: need n >= 1, got n=%d", par.N)
	}
	if par.BSB == 0 {
		par.BSB = bsb.Oracle
	}
	// t < n/3 is needed only for the error-free Broadcast_Single_Bit
	// (Section 4): with a probabilistically correct broadcast the
	// construction stands up to t < n/2 (code dimension n-2t >= 1 and the
	// diagnosis-graph counting still require an honest majority).
	if par.BSB == bsb.ProbOracle {
		if par.T < 0 || 2*par.T >= par.N {
			return par, fmt.Errorf("consensus: need 0 <= t < n/2 with proboracle, got n=%d t=%d", par.N, par.T)
		}
	} else if par.T < 0 || 3*par.T >= par.N {
		return par, fmt.Errorf("consensus: need 0 <= t < n/3, got n=%d t=%d", par.N, par.T)
	}
	// Phase king tolerates fewer faults than the consensus around it;
	// without this check the mismatch surfaces only inside the first run,
	// when bsb.NewPhaseKing refuses the parameters.
	if par.BSB == bsb.PhaseKing && par.N <= 4*par.T {
		return par, fmt.Errorf("consensus: phase-king broadcast needs n > 4t, got n=%d t=%d", par.N, par.T)
	}
	if par.SymBits == 0 {
		if par.N > 255 {
			par.SymBits = 16
		} else {
			par.SymBits = 8
		}
	}
	if par.SymBits != 8 && par.SymBits != 16 {
		return par, fmt.Errorf("consensus: SymBits must be 8 or 16, got %d", par.SymBits)
	}
	if par.N > (1<<par.SymBits)-1 {
		return par, fmt.Errorf("consensus: n=%d exceeds max code length %d for c=%d", par.N, (1<<par.SymBits)-1, par.SymBits)
	}
	if L < 1 {
		return par, fmt.Errorf("consensus: need L >= 1 bit, got %d", L)
	}
	if par.Lanes == 0 {
		par.Lanes = OptimalLanes(par.N, par.T, par.SymBits, int64(L), par.bsbCost())
	}
	if par.Lanes < 1 {
		return par, fmt.Errorf("consensus: Lanes must be >= 1, got %d", par.Lanes)
	}
	return par, nil
}

// bsbCost returns the per-bit broadcast cost B used for D* tuning and for
// the closed-form predictions.
func (par Params) bsbCost() int64 {
	switch par.BSB {
	case bsb.Oracle, 0:
		if par.BSBCost > 0 {
			return par.BSBCost
		}
		return bsb.DefaultOracleCost(par.N)
	default:
		// EIG / PhaseKing costs are computed by the implementations; for
		// tuning purposes use the paper's Θ(n²) figure, since D* only shifts
		// slowly with B.
		return bsb.DefaultOracleCost(par.N)
	}
}

// K returns the code dimension n-2t.
func (par Params) K() int { return par.N - 2*par.T }

// D returns the generation size in bits, (n-2t)*m*c.
func (par Params) D() int { return par.K() * par.Lanes * int(par.SymBits) }

// OptimalLanes computes the interleaving depth m whose generation size
// D = (n-2t)*m*c best approximates the optimal D* of Eq. 2:
//
//	D* = sqrt( (n²-n+t)(n-2t)·L / (t(t+1)(n-t)) )
//
// For t = 0 no diagnosis can ever occur and the whole value fits one
// generation. The result is clamped to [1, ceil(L/((n-2t)c))] so a
// generation never exceeds the value.
func OptimalLanes(n, t int, c uint, L int64, B int64) int {
	k := int64(n - 2*t)
	unit := k * int64(c) // D per lane
	maxLanes := (L + unit - 1) / unit
	if maxLanes < 1 {
		maxLanes = 1
	}
	if t == 0 {
		return int(maxLanes)
	}
	num := float64(int64(n)*int64(n)-int64(n)+int64(t)) * float64(k) * float64(L)
	den := float64(t) * float64(t+1) * float64(n-t)
	dstar := math.Sqrt(num / den)
	lanes := int64(math.Round(dstar / float64(unit)))
	if lanes < 1 {
		lanes = 1
	}
	if lanes > maxLanes {
		lanes = maxLanes
	}
	return int(lanes)
}
