// Package metrics provides the bit-accounting used to check the paper's
// communication-complexity formulas. Every message delivered by the simulator
// is tallied here under a protocol-stage tag, separately for honest- and
// faulty-sent traffic, so experiments can compare measured bits per stage
// against Eq. 1-3 of the paper.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tally accumulates traffic for one tag.
type Tally struct {
	Bits       int64 // bits sent by honest processors
	Msgs       int64 // messages sent by honest processors
	FaultyBits int64 // bits sent by faulty processors
	FaultyMsgs int64
}

// Total returns honest + faulty bits.
func (t Tally) Total() int64 { return t.Bits + t.FaultyBits }

// tally is the internal accumulator: atomic fields, because one meter is
// shared by every processor of an instance (and by every node of a networked
// deployment) and Add sits on the per-message hot path — a mutex here
// serializes all of them on one lock.
type tally struct {
	bits, msgs, faultyBits, faultyMsgs atomic.Int64
}

func (t *tally) snapshot() Tally {
	return Tally{
		Bits: t.bits.Load(), Msgs: t.msgs.Load(),
		FaultyBits: t.faultyBits.Load(), FaultyMsgs: t.faultyMsgs.Load(),
	}
}

// Meter tallies protocol traffic by tag. Meter is safe for concurrent use;
// the hot Add path is a lock-free map hit plus two atomic adds.
type Meter struct {
	tags   sync.Map // string -> *tally
	rounds atomic.Int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// Add records one message of the given size under tag.
func (m *Meter) Add(tag string, bits int64, faulty bool) {
	m.AddN(tag, bits, 1, faulty)
}

// AddN records msgs messages totalling bits under tag: one map lookup for a
// run of same-tag messages instead of one per message.
func (m *Meter) AddN(tag string, bits, msgs int64, faulty bool) {
	if bits < 0 || msgs < 0 {
		panic(fmt.Sprintf("metrics: negative bits %d or messages %d for tag %q", bits, msgs, tag))
	}
	v, ok := m.tags.Load(tag)
	if !ok {
		v, _ = m.tags.LoadOrStore(tag, &tally{})
	}
	t := v.(*tally)
	if faulty {
		t.faultyBits.Add(bits)
		t.faultyMsgs.Add(msgs)
	} else {
		t.bits.Add(bits)
		t.msgs.Add(msgs)
	}
}

// AddRound records one synchronous communication round.
func (m *Meter) AddRound() {
	m.rounds.Add(1)
}

// Rounds returns the number of synchronous rounds executed.
func (m *Meter) Rounds() int64 {
	return m.rounds.Load()
}

// TotalBits returns all bits sent by all processors (honest and faulty).
func (m *Meter) TotalBits() int64 {
	var sum int64
	m.tags.Range(func(_, v any) bool {
		t := v.(*tally)
		sum += t.bits.Load() + t.faultyBits.Load()
		return true
	})
	return sum
}

// HonestBits returns all bits sent by honest processors.
func (m *Meter) HonestBits() int64 {
	var sum int64
	m.tags.Range(func(_, v any) bool {
		sum += v.(*tally).bits.Load()
		return true
	})
	return sum
}

// BitsByPrefix sums total bits over all tags with the given prefix
// (e.g. "match." covers "match.sym" and "match.M").
func (m *Meter) BitsByPrefix(prefix string) int64 {
	var sum int64
	m.tags.Range(func(k, v any) bool {
		if strings.HasPrefix(k.(string), prefix) {
			t := v.(*tally)
			sum += t.bits.Load() + t.faultyBits.Load()
		}
		return true
	})
	return sum
}

// Snapshot returns a copy of all tallies keyed by tag.
func (m *Meter) Snapshot() map[string]Tally {
	out := make(map[string]Tally)
	m.tags.Range(func(k, v any) bool {
		out[k.(string)] = v.(*tally).snapshot()
		return true
	})
	return out
}

// String renders the tallies sorted by tag, for debugging and reports.
func (m *Meter) String() string {
	snap := m.Snapshot()
	tags := make([]string, 0, len(snap))
	for tag := range snap {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var b strings.Builder
	for _, tag := range tags {
		t := snap[tag]
		fmt.Fprintf(&b, "%-14s bits=%-12d msgs=%-8d faultyBits=%d\n", tag, t.Bits, t.Msgs, t.FaultyBits)
	}
	fmt.Fprintf(&b, "total=%d bits over %d rounds\n", m.TotalBits(), m.Rounds())
	return b.String()
}
