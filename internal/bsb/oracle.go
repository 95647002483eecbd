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
	// next, src and out are per-broadcaster scratch: a broadcaster serves one
	// processor's run, and the caller consumes the returned batch before its next
	// Broadcast call, so all three recycle across batches. (The contribution
	// slice myBits is NOT reusable: the simulator delivers it by reference
	// and peers may still be reading it while this processor runs ahead.)
	next []int
	src  [][]bool
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
	// Contribute my bits for the instances I am the source of, in batch
	// order, in a slice sized up front (nil when I am the source of none).
	me, mineCount := o.p.ID, 0
	for i := range insts {
		if insts[i].Src == me {
			mineCount++
		}
	}
	var myBits []bool
	if mineCount > 0 {
		myBits = make([]bool, 0, mineCount)
		for i := range insts {
			if insts[i].Src == me {
				myBits = append(myBits, boolsAt(mine, i))
			}
		}
	}
	cost := o.costPerBit * int64(len(myBits))
	vals := o.p.Sync(step, myBits, cost, tag, insts)

	// Assemble the decided bits: instance i takes the next bit from its
	// source's contribution. All processors read the same vals slice, so a
	// faulty source that submitted garbage still yields one consistent bit.
	// Each contribution is unboxed once, not once per instance.
	if cap(o.next) < o.n {
		o.next = make([]int, o.n)
		o.src = make([][]bool, o.n)
	}
	next, src := o.next[:o.n], o.src[:o.n]
	for i := range next {
		next[i] = 0
		src[i] = asBools(vals[i])
	}
	if cap(o.out) < len(insts) {
		o.out = make([]bool, len(insts))
	}
	out := o.out[:len(insts)]
	for i := range insts {
		s := insts[i].Src
		if s < 0 || s >= o.n {
			out[i] = false // caller bug guarded in tests
			continue
		}
		out[i] = boolsAt(src[s], next[s])
		next[s]++
	}
	clear(src) // the contributions belong to the step, not to the broadcaster
	return out
}
