package bsb

import (
	"byzcons/internal/sim"
)

// DefaultOracleCost returns the default charged cost B(n) = 2n² bits per
// broadcast bit, the order achieved by the error-free 1-bit broadcast
// algorithms the paper cites (Berman-Garay-Perry; Coan-Welch).
func DefaultOracleCost(n int) int64 { return 2 * int64(n) * int64(n) }

// oracle is an ideal Broadcast_Single_Bit: delivery is performed by the
// simulator's Sync service, which gives exactly the error-free broadcast
// contract (a faulty source's bit is chosen by the adversary but delivered
// identically to everyone). Each broadcast bit is charged costPerBit.
type oracle struct {
	p          *sim.Proc
	n, t       int
	costPerBit int64
	// next and out are per-broadcaster scratch: a broadcaster serves one
	// processor's run, and the caller consumes the returned batch before its next
	// Broadcast call, so both recycle across batches. (The contribution
	// slice myBits is NOT reusable: the simulator delivers it by reference
	// and peers may still be reading it while this processor runs ahead.)
	next []int
	out  []bool
}

// NewOracle returns an oracle broadcaster charging costPerBit bits per
// broadcast bit; costPerBit <= 0 selects DefaultOracleCost(n).
func NewOracle(p *sim.Proc, n, t int, costPerBit int64) Broadcaster {
	if costPerBit <= 0 {
		costPerBit = DefaultOracleCost(n)
	}
	return &oracle{p: p, n: n, t: t, costPerBit: costPerBit}
}

func (o *oracle) CostPerBit() int64 { return o.costPerBit }

func (o *oracle) MaxFaulty() int { return (o.n - 1) / 3 }

func (o *oracle) Broadcast(step sim.StepID, insts []Inst, mine []bool, tag string) []bool {
	// Contribute my bits for the instances I am the source of, in batch order.
	var myBits []bool
	for i, inst := range insts {
		if inst.Src == o.p.ID {
			myBits = append(myBits, boolsAt(mine, i))
		}
	}
	cost := o.costPerBit * int64(len(myBits))
	vals := o.p.Sync(step, myBits, cost, tag, insts)

	// Assemble the decided bits: instance i takes the next bit from its
	// source's contribution. All processors read the same vals slice, so a
	// faulty source that submitted garbage still yields one consistent bit.
	if cap(o.next) < o.n {
		o.next = make([]int, o.n)
	}
	next := o.next[:o.n]
	for i := range next {
		next[i] = 0
	}
	if cap(o.out) < len(insts) {
		o.out = make([]bool, len(insts))
	}
	out := o.out[:len(insts)]
	for i := range out {
		out[i] = false
	}
	for i, inst := range insts {
		src := inst.Src
		if src < 0 || src >= o.n {
			continue // leave default false; caller bug guarded in tests
		}
		out[i] = boolsAt(asBools(vals[src]), next[src])
		next[src]++
	}
	return out
}
