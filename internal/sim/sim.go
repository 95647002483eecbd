// Package sim is a single-host simulator for the paper's system model: a
// synchronous, fully connected network of n processors with a pair of
// directed point-to-point channels between every two processors, and a
// Byzantine adversary with complete knowledge of all processors' states.
//
// Execution model. Every processor (honest or faulty) runs the protocol body
// in its own goroutine. Communication happens at labelled barrier steps:
//
//   - Exchange: point-to-point messages submitted by all processors are
//     delivered together at the end of the step (one synchronous round);
//   - Sync: an ideal all-to-all service used to implement oracle primitives
//     (notably the Broadcast_Single_Bit oracle) and to gather results.
//
// Faulty processors execute the same protocol code as honest ones, which
// keeps every goroutine's control flow aligned (in a synchronous system a
// Byzantine processor can only choose message contents, not change the round
// structure). Their deviation is injected centrally: after all processors
// have submitted their traffic for a step, the Adversary may rewrite the
// outgoing messages or contributions of faulty processors with full knowledge
// of everything submitted in that step. This models the strongest "rushing"
// adversary of the paper.
//
// Every delivered message is metered under a protocol-stage tag, which is how
// the experiments check the paper's communication-complexity formulas.
package sim

import (
	"fmt"
	"math/rand"
)

// StepID labels one barrier step. All processors must arrive at the same
// step in the same order; any divergence is a protocol bug and aborts the
// run immediately.
type StepID string

// Message is a point-to-point protocol message. Bits is the protocol-level
// size of the payload (what the paper's complexity measure counts), which is
// deliberately independent of the in-memory representation.
type Message struct {
	From    int
	To      int
	Payload any
	Bits    int64
	Tag     string
}

// ExchangeCtx is handed to the adversary at every Exchange step after all
// processors submitted their protocol-conformant messages.
type ExchangeCtx struct {
	Step StepID
	// Instance identifies the protocol instance this step belongs to when
	// several instances are multiplexed over one deployment (RunBatch);
	// single-instance runs use instance 0.
	Instance int
	N        int
	Faulty   []bool // Faulty[i] reports whether processor i is adversary-controlled
	// Out[i] is processor i's outbox for this step. The adversary may
	// mutate, replace, extend or drop entries of faulty processors only.
	Out [][]Message
	// Meta is protocol-supplied step metadata (identical at every processor),
	// e.g. the instance descriptors of a batch of broadcasts.
	Meta any
	Rand *rand.Rand
}

// SyncCtx is handed to the adversary at every Sync step.
type SyncCtx struct {
	Step StepID
	// Instance identifies the protocol instance of this step (see
	// ExchangeCtx.Instance).
	Instance int
	N        int
	Faulty   []bool
	// Vals[i] is processor i's contribution. The adversary may replace
	// entries of faulty processors only.
	Vals []any
	Meta any
	Rand *rand.Rand
}

// Adversary injects Byzantine behaviour. Implementations may assume they are
// called under the network lock, one step at a time, and must only modify
// state belonging to faulty processors.
type Adversary interface {
	ReworkExchange(ctx *ExchangeCtx)
	ReworkSync(ctx *SyncCtx)
}

// Passive is an adversary that corrupts processors but never deviates from
// the protocol (fail-free execution with a designated faulty set).
type Passive struct{}

// ReworkExchange implements Adversary (no deviation).
func (Passive) ReworkExchange(*ExchangeCtx) {}

// ReworkSync implements Adversary (no deviation).
func (Passive) ReworkSync(*SyncCtx) {}

// abortError carries a run-level failure through panics across goroutine
// barriers; it never escapes Run.
type abortError struct{ err error }

func abortf(format string, args ...any) abortError {
	return abortError{fmt.Errorf(format, args...)}
}
