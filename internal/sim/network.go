package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"byzcons/internal/metrics"
)

const (
	kindExchange = iota + 1
	kindSync
)

// Network implements the synchronous barrier rounds shared by all processor
// goroutines of one run.
type Network struct {
	n        int
	instance int // instance id when multiplexed by RunBatch; -1 for single runs
	faulty   []bool
	adv      Adversary
	meter    *metrics.Meter
	rand     *rand.Rand

	mu      sync.Mutex
	cond    *sync.Cond
	phase   uint64
	arrived int
	done    int // processors whose body has returned
	step    StepID
	kind    int
	meta    any
	outs    [][]Message
	vals    []any
	bits    []int64
	tags    []string
	// inboxes and synced are the results of the last Exchange and Sync. The
	// next barrier of the same kind refills them in place: every processor
	// has arrived there, so none still reads the previous result (the
	// Backend contract).
	inboxes [][]Message // indexed by receiver
	synced  []any
	xctx    ExchangeCtx // reused adversary contexts
	sctx    SyncCtx
	failed  error
}

// NewNetwork creates a network for n processors. faulty marks the
// adversary-controlled processors; adv rewrites their traffic (Passive for
// fail-free runs). rng drives adversary randomness deterministically.
// instance tags the network's steps and errors when several instances are
// multiplexed over one deployment (-1 for single-instance runs).
func NewNetwork(n, instance int, faulty []bool, adv Adversary, meter *metrics.Meter, rng *rand.Rand) *Network {
	if adv == nil {
		adv = Passive{}
	}
	net := &Network{
		n:        n,
		instance: instance,
		faulty:   faulty,
		adv:      adv,
		meter:    meter,
		rand:     rng,
		outs:     make([][]Message, n),
		vals:     make([]any, n),
		bits:     make([]int64, n),
		tags:     make([]string, n),
		inboxes:  make([][]Message, n),
		synced:   make([]any, n),
	}
	net.cond = sync.NewCond(&net.mu)
	return net
}

// Meter returns the network's bit meter.
func (net *Network) Meter() *metrics.Meter { return net.meter }

// Exchange implements Backend.
func (net *Network) Exchange(p int, step StepID, out []Message, meta any) []Message {
	in, _ := net.rendezvous(p, step, kindExchange, out, nil, 0, "", meta)
	return in
}

// Sync implements Backend.
func (net *Network) Sync(p int, step StepID, val any, bits int64, tag string, meta any) []any {
	_, synced := net.rendezvous(p, step, kindSync, nil, val, bits, tag, meta)
	return synced
}

// Fail implements Backend.
func (net *Network) Fail(err error) { net.fail(err) }

// FirstHonest implements Backend.
func (net *Network) FirstHonest() int {
	for i, f := range net.faulty {
		if !f {
			return i
		}
	}
	return -1
}

// errf builds a run-level error tagged with the network's instance when it is
// part of a multiplexed batch, so failures are attributable to one instance.
func (net *Network) errf(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	if net.instance >= 0 {
		err = fmt.Errorf("inst %d: %w", net.instance, err)
	}
	return err
}

// procDone records that one processor's body returned. If other processors
// are parked at a barrier that can now never be completed, the run is failed
// rather than deadlocked.
func (net *Network) procDone() {
	net.mu.Lock()
	net.done++
	if net.arrived > 0 && net.arrived+net.done >= net.n && net.failed == nil {
		net.failed = net.errf("sim: %d processor(s) exited while others wait at step %q", net.done, net.step)
		net.cond.Broadcast()
	}
	net.mu.Unlock()
}

// fail aborts the whole run with the given error: every processor blocked at
// (or arriving at) a barrier panics with an abortError, which Run recovers.
func (net *Network) fail(err error) {
	net.mu.Lock()
	if net.failed == nil {
		net.failed = err
	}
	net.cond.Broadcast()
	net.mu.Unlock()
}

// rendezvous runs one barrier: each participant submits its data (out for
// an Exchange; val, bits and tag for a Sync); the last arrival finalizes the
// step (adversary rework, routing, metering) and wakes the others. The
// finalized result for the phase is captured before any participant can
// start the next phase, because the next finalize needs all n participants to
// have arrived again.
func (net *Network) rendezvous(p int, step StepID, kind int, out []Message, val any, bits int64, tag string, meta any) ([]Message, []any) {
	net.mu.Lock()
	defer net.mu.Unlock()
	if net.failed != nil {
		panic(abortError{net.failed})
	}
	if net.arrived == 0 {
		net.step = step
		net.kind = kind
		net.meta = nil
	} else if net.step != step || net.kind != kind {
		err := net.errf("sim: step mismatch: processor %d at %q (kind %d), barrier at %q (kind %d)",
			p, step, kind, net.step, net.kind)
		net.failed = err
		net.cond.Broadcast()
		panic(abortError{err})
	}
	if kind == kindExchange {
		net.outs[p] = out
	} else {
		net.vals[p], net.bits[p], net.tags[p] = val, bits, tag
	}
	if meta != nil && net.meta == nil {
		net.meta = meta
	}
	net.arrived++
	myPhase := net.phase
	if net.done > 0 && net.arrived+net.done >= net.n {
		err := net.errf("sim: step %q can never complete: %d processor(s) already exited", step, net.done)
		net.failed = err
		net.cond.Broadcast()
		panic(abortError{err})
	}
	if net.arrived == net.n {
		if kind == kindExchange {
			net.finalizeExchange()
		} else {
			net.finalizeSync()
		}
		if net.failed != nil {
			net.cond.Broadcast()
			panic(abortError{net.failed})
		}
		net.meter.AddRound()
		net.arrived = 0
		net.phase++
		net.cond.Broadcast()
	} else {
		for net.phase == myPhase && net.failed == nil {
			net.cond.Wait()
		}
		if net.failed != nil {
			panic(abortError{net.failed})
		}
	}
	if kind == kindExchange {
		return net.inboxes[p], nil
	}
	return nil, net.synced
}

// finalizeExchange runs under the lock once all processors submitted.
func (net *Network) finalizeExchange() {
	net.xctx = ExchangeCtx{
		Step: net.step, Instance: max(net.instance, 0), N: net.n, Faulty: net.faulty,
		Out: net.outs, Meta: net.meta, Rand: net.rand,
	}
	net.adv.ReworkExchange(&net.xctx)
	net.xctx = ExchangeCtx{}
	inboxes := net.inboxes
	for to := range inboxes {
		clear(inboxes[to]) // drop the previous round's payload references
		inboxes[to] = inboxes[to][:0]
	}
	for from := 0; from < net.n; from++ {
		var run tagRun
		for _, m := range net.outs[from] {
			m.From = from // senders cannot forge their identity (paper's channel model)
			if m.To < 0 || m.To >= net.n || m.To == from {
				net.failed = net.errf("sim: step %q: processor %d sent message with bad To=%d", net.step, from, m.To)
				break
			}
			if m.Bits < 0 {
				net.failed = net.errf("sim: step %q: negative Bits from processor %d", net.step, from)
				break
			}
			if m.Tag != run.tag {
				run.flush(net.meter, net.faulty[from])
			}
			run.tag, run.bits, run.msgs = m.Tag, run.bits+m.Bits, run.msgs+1
			inboxes[m.To] = append(inboxes[m.To], m)
		}
		run.flush(net.meter, net.faulty[from])
		if net.failed != nil {
			return
		}
		net.outs[from] = nil
	}
}

// tagRun accumulates one sender's consecutive same-tag messages, so that
// each run is metered with one Meter.AddN rather than one Add per message.
type tagRun struct {
	tag        string
	bits, msgs int64
}

func (r *tagRun) flush(m *metrics.Meter, faulty bool) {
	if r.msgs > 0 {
		m.AddN(r.tag, r.bits, r.msgs, faulty)
	}
	*r = tagRun{}
}

// finalizeSync runs under the lock once all processors submitted.
func (net *Network) finalizeSync() {
	net.sctx = SyncCtx{
		Step: net.step, Instance: max(net.instance, 0), N: net.n, Faulty: net.faulty,
		Vals: net.vals, Meta: net.meta, Rand: net.rand,
	}
	net.adv.ReworkSync(&net.sctx)
	net.sctx = SyncCtx{}
	copy(net.synced, net.vals)
	for p := 0; p < net.n; p++ {
		if net.bits[p] > 0 {
			net.meter.Add(net.tags[p], net.bits[p], net.faulty[p])
		}
		net.vals[p] = nil
		net.bits[p] = 0
		net.tags[p] = ""
	}
}
