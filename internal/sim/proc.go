package sim

import (
	"fmt"
	"math/rand"
)

// Backend is the execution substrate behind a Proc: it implements the two
// barrier primitives of the synchronous model plus run-level failure
// handling. The in-memory Network of this package is the reference backend
// (a single-host barrier with a centrally injected adversary); internal/node
// provides a distributed backend that realises the same semantics over
// encoded messages on a real transport.
//
// A barrier's result containers — the []Message an Exchange returns and the
// []any a Sync returns — are valid until the caller's next barrier: a backend
// may refill them in place once every processor has moved on. The payloads
// they hold are the senders' and follow the senders' own lifetime rules.
type Backend interface {
	// Exchange delivers processor p's point-to-point messages for one
	// synchronous round and returns the messages addressed to p, ordered by
	// sender id.
	Exchange(p int, step StepID, out []Message, meta any) []Message
	// Sync submits processor p's contribution to the ideal all-to-all
	// service and returns all n contributions.
	Sync(p int, step StepID, val any, bits int64, tag string, meta any) []any
	// Fail records a run-level failure so that every processor of the run
	// terminates with the given error.
	Fail(err error)
	// FirstHonest returns the lowest id of a non-faulty processor, or -1.
	FirstHonest() int
}

// Proc is one processor's handle on the deployment. Protocol code is written
// as a function of a Proc; the same code runs at honest and faulty processors
// (the adversary rewrites faulty traffic at the backend layer) and over any
// Backend (simulator barrier or networked runtime).
type Proc struct {
	ID     int
	N      int
	Faulty bool // whether this processor is adversary-controlled
	Rand   *rand.Rand
	rt     Backend
	rounds int64
}

// NewProc binds a processor handle to a backend. It exists for alternative
// runtimes (internal/node); simulator runs construct their Procs internally.
func NewProc(id, n int, faulty bool, rng *rand.Rand, rt Backend) *Proc {
	return &Proc{ID: id, N: n, Faulty: faulty, Rand: rng, rt: rt}
}

// LocalRounds returns the number of barrier steps this handle has completed.
// It is a logical, processor-local count: every processor executes the same
// step sequence, so the count is identical at all processors and backends.
func (p *Proc) LocalRounds() int64 { return p.rounds }

// Exchange submits this processor's point-to-point messages for the given
// step and returns the messages delivered to it, sorted by sender. All
// processors must call Exchange with the same step (one synchronous round).
// meta, if non-nil, is step metadata made visible to the adversary; it must
// be identical at every processor (by construction: it is derived from
// common state). The returned slice is valid until this processor's next
// barrier (Backend).
func (p *Proc) Exchange(step StepID, out []Message, meta any) []Message {
	in := p.rt.Exchange(p.ID, step, out, meta)
	p.rounds++
	return in
}

// Sync submits a contribution to an ideal all-to-all service and returns all
// n contributions (identical at every processor). bits are metered under tag
// against this processor; use 0 for accounting-free gathers. The returned
// slice is valid until this processor's next barrier (Backend).
func (p *Proc) Sync(step StepID, val any, bits int64, tag string, meta any) []any {
	vals := p.rt.Sync(p.ID, step, val, bits, tag, meta)
	p.rounds++
	return vals
}

// Abort terminates the whole run with the given error.
func (p *Proc) Abort(err error) {
	p.rt.Fail(err)
	panic(abortError{err})
}

// AbortRun aborts the calling processor's run from inside a Backend
// implementation: the panic is recovered by Invoke (or the simulator's
// runner) and converted back into the error. Backends must call their own
// Fail before AbortRun so concurrent processors of the run fail too.
func AbortRun(err error) {
	panic(abortError{err})
}

// Invoke runs body at p, converting protocol aborts (Proc.Abort, AbortRun)
// and stray panics into an error. It reports the failure to the backend so
// the other processors of the run terminate as well. Alternative backends
// use it as their body driver; the simulator keeps its own equivalent.
func Invoke(p *Proc, body func(*Proc) any) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case abortError:
				err = e.err
			default:
				err = fmt.Errorf("sim: processor %d panicked: %v", p.ID, r)
			}
			p.rt.Fail(err)
		}
	}()
	return body(p), nil
}

// FirstHonest returns the lowest id of a non-faulty processor, or -1 if all
// are faulty. It exists for simulation scaffolding only: a faulty processor's
// goroutine runs the honest protocol code to keep the synchronous round
// structure aligned, but primitives that guarantee agreement only among
// honest processors (e.g. EIG broadcast) may leave a faulty processor with a
// diverging local view, which a real Byzantine processor could act on freely
// but which would desynchronise the simulation. Such primitives realign the
// faulty processor's view with an honest one's.
func (p *Proc) FirstHonest() int {
	return p.rt.FirstHonest()
}
