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
	// Broadcast call, so all three recycle across batches.
	next []int
	src  [][]bool
	out  []bool
	// contrib holds my contributions, alternating by batch. The simulator
	// delivers a contribution by reference and a peer reads it until its
	// next barrier; I rewrite a slice two batches later, past the next
	// batch's barrier, which every peer must have reached first.
	contrib [2][]bool
	batches int
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
	// order: a batch lists each source's instances in runs, and each run is
	// one copy. The contribution is nil when I am the source of none.
	me := o.p.ID
	slot := &o.contrib[o.batches&1]
	o.batches++
	bits := (*slot)[:0]
	for i, j := 0, 0; i < len(insts); i = j {
		if j = runEnd(insts, i); insts[i].Src == me {
			bits = appendRun(bits, mine, i, j-i)
		}
	}
	*slot = bits
	var myBits []bool
	if len(bits) > 0 {
		myBits = bits
	}
	cost := o.costPerBit * int64(len(myBits))
	vals := o.p.Sync(step, myBits, cost, tag, insts)

	// Assemble the decided bits: instance i takes the next bit from its
	// source's contribution. All processors read the same vals slice, so a
	// faulty source that submitted garbage still yields one consistent bit.
	// Each contribution is unboxed once, and each run of one source's
	// instances is filled with one copy.
	if cap(o.next) < o.n {
		o.next = make([]int, o.n)
		o.src = make([][]bool, o.n)
	}
	next, src := o.next[:o.n], o.src[:o.n]
	for i := range next {
		next[i] = 0
		src[i] = asBools(vals[i])
	}
	out := o.out[:0]
	for i, j := 0, 0; i < len(insts); i = j {
		j = runEnd(insts, i)
		s := insts[i].Src
		if s < 0 || s >= o.n {
			out = appendRun(out, nil, 0, j-i) // caller bug guarded in tests
			continue
		}
		out = appendRun(out, src[s], next[s], j-i)
		next[s] += j - i
	}
	o.out = out
	clear(src) // the contributions belong to the step, not to the broadcaster
	return out
}

// runEnd returns the end of the run of instances from insts[i]'s source that
// starts at i.
func runEnd(insts []Inst, i int) int {
	j := i + 1
	for j < len(insts) && insts[j].Src == insts[i].Src {
		j++
	}
	return j
}

// appendRun appends the n bits of v from index lo on, reading the bits past
// v's end as false: boolsAt's rule, a run at a time.
func appendRun(dst, v []bool, lo, n int) []bool {
	got := v[min(lo, len(v)):min(lo+n, len(v))]
	dst = append(dst, got...)
	return append(dst, make([]bool, n-len(got))...)
}
