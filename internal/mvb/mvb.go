// Package mvb implements the paper's Section 4 extension: error-free
// multi-valued Byzantine broadcast (the "Byzantine Generals" problem) for a
// designated source holding an L-bit value, tolerating t < n/3 faults.
//
// Construction: the source sends its value to every processor ((n-1)·L bits),
// and all processors then run Algorithm 1 multi-valued consensus on what they
// received. Correctness is immediate from the consensus properties:
//
//   - source honest ⇒ all honest consensus inputs equal the source's value
//     ⇒ consensus validity delivers exactly that value to every honest
//     processor (broadcast validity);
//   - source faulty ⇒ consensus consistency still makes all honest outputs
//     identical (broadcast consistency).
//
// Total cost is (n-1)·L + Ccon(L) ≈ (1 + n/(n-2t))·(n-1)·L + O(n⁴√L), i.e.
// O(nL) for large L. The companion tech report the paper cites ([8]) reaches
// 1.5(n-1)·L + Θ(n⁴√L) with an optimised dissemination we do not reproduce;
// experiment E9 (cmd/experiments, index in DESIGN.md §8) reports this
// implementation's measured constant against the (n-1)·L lower bound the
// paper quotes.
package mvb

import (
	"fmt"

	"byzcons/internal/consensus"
	"byzcons/internal/sim"
)

// Params configures one broadcast run.
type Params struct {
	// Source is the broadcasting processor's id.
	Source int
	// Consensus configures the underlying Algorithm 1 instance.
	Consensus consensus.Params
}

// Output is the per-processor result of a broadcast run.
type Output struct {
	Value         []byte
	L             int
	Defaulted     bool
	Generations   int
	DiagnosisRuns int
}

// Run executes the broadcast at processor p. value is consulted only at the
// source; every processor must pass the same L.
func Run(p *sim.Proc, par Params, value []byte, L int) *Output {
	n := par.Consensus.N
	if par.Source < 0 || par.Source >= n {
		p.Abort(fmt.Errorf("mvb: source %d out of range [0,%d)", par.Source, n))
	}

	// Dissemination round: the source sends the full value to everyone.
	var out []sim.Message
	if p.ID == par.Source {
		for to := 0; to < n; to++ {
			if to != p.ID {
				out = append(out, sim.Message{To: to, Payload: value, Bits: int64(L), Tag: "mvb.send"})
			}
		}
	}
	in := p.Exchange("mvb/send", out, nil)
	received := make([]byte, (L+7)/8)
	if p.ID == par.Source {
		copy(received, value)
	} else {
		for _, m := range in {
			if m.From != par.Source {
				continue
			}
			if b, ok := m.Payload.([]byte); ok {
				copy(received, b)
			}
			break
		}
	}

	// Agreement on the received values via Algorithm 1.
	res := consensus.Run(p, par.Consensus, received, L)
	return &Output{
		Value:         res.Value,
		L:             L,
		Defaulted:     res.Defaulted,
		Generations:   res.Generations,
		DiagnosisRuns: res.DiagnosisRuns,
	}
}
