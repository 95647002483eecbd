package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"byzcons"
)

// Workload is one named input shape of the benchmark. Everything the program
// under test sees — session configuration, value bytes, arrival times — is a
// function of (Workload, seed).
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json, README).
	Why string

	N, T       int
	Transport  byzcons.TransportKind
	Broadcast  byzcons.BroadcastKind
	ValueBytes int
	Batch      int // SessionConfig.BatchValues
	Instances  int
	// Byzantine makes processor 1 an Equivocator.
	Byzantine bool
	// DelayOneWay, when > 0, injects that one-way delay on every channel
	// through the chaos layer (RTT = 2x).
	DelayOneWay time.Duration
	// OpenRate > 0 makes the loop open: that many values per second at fixed
	// spacing, each timed from its due time. 0 is the closed loop: one burst
	// of Batch x Instances values outstanding at a time.
	OpenRate int
}

// Burst is the number of values of one full flush cycle: the closed loops'
// outstanding count and every workload's warm-up burst.
func (w Workload) Burst() int { return w.Batch * w.Instances }

// openLimit is the open loop's latency limit: a value decided later than this
// after its due time counts as missing the rate.
const openLimit = 1500 * time.Millisecond

var workloads = []Workload{
	{
		Name: "tcp7_small",
		Why:  "small commands at saturation over loopback TCP: time goes to per-frame work in node, wire and transport; coding does almost nothing",
		N:    7, T: 2, Transport: byzcons.TransportTCP, Broadcast: byzcons.BroadcastOracle,
		ValueBytes: 64, Batch: 64, Instances: 4,
	},
	{
		Name: "sim16_large",
		Why:  "the paper's large-L regime (2 Mbit per instance) on the simulator: time goes to consensus matching, rs/gf coding and bitio; wire, transport and node are bypassed",
		N:    16, T: 5, Transport: byzcons.TransportSim, Broadcast: byzcons.BroadcastOracle,
		ValueBytes: 16 << 10, Batch: 16, Instances: 1,
	},
	{
		Name: "tcp7_rtt1ms_open200",
		Why:  "open loop at 200 values/s with 1 ms injected RTT: latency-bound, cycle time is rounds x delay, partial batches; CPU savings do not show, round-count changes do",
		N:    7, T: 2, Transport: byzcons.TransportTCP, Broadcast: byzcons.BroadcastOracle,
		ValueBytes: 64, Batch: 64, Instances: 4,
		DelayOneWay: 500 * time.Microsecond, OpenRate: 200,
	},
	{
		Name: "tcp7_pk_byz",
		Why:  "phase-king Broadcast_Single_Bit with an equivocating processor over TCP: bsb carries most frames and the diagnosis path runs; every value must still decide correctly",
		N:    7, T: 1, Transport: byzcons.TransportTCP, Broadcast: byzcons.BroadcastPhaseKing,
		ValueBytes: 64, Batch: 64, Instances: 4, Byzantine: true,
	},
}

func findWorkload(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// SessionConfig is the configuration the program is opened with.
func (w Workload) SessionConfig(seed int64) byzcons.SessionConfig {
	cfg := byzcons.SessionConfig{
		Config:      byzcons.Config{N: w.N, T: w.T, Broadcast: w.Broadcast, Window: 1, Seed: seed},
		Transport:   w.Transport,
		BatchValues: w.Batch,
		Instances:   w.Instances,
	}
	if w.Byzantine {
		cfg.Scenario = byzcons.Scenario{Faulty: []int{1}, Behavior: byzcons.Equivocator{}}
	}
	if w.DelayOneWay > 0 {
		cfg.Chaos = fmt.Sprintf("%d:delayall(%s,0s)@c0", seed, w.DelayOneWay)
	}
	return cfg
}

// valuePoolBursts is how many bursts of distinct value bodies are generated
// up front; proposals cycle through the pool and are made unique by their
// sequence stamp, so generation costs nothing inside the measure window.
const valuePoolBursts = 2

// Inputs are the generated inputs of one child run.
type Inputs struct {
	w    Workload
	pool [][]byte
	// Phase shifts the open loop's fixed-spacing schedule by a seeded offset
	// below one spacing.
	Phase time.Duration
}

func newInputs(w Workload, seed int64) *Inputs {
	rng := rand.New(rand.NewSource(seed ^ int64(hashName(w.Name))))
	in := &Inputs{w: w, pool: make([][]byte, valuePoolBursts*w.Burst())}
	for i := range in.pool {
		in.pool[i] = make([]byte, w.ValueBytes)
		rng.Read(in.pool[i])
	}
	if w.OpenRate > 0 {
		in.Phase = time.Duration(rng.Int63n(int64(time.Second) / int64(w.OpenRate)))
	}
	return in
}

// Value writes proposal seq into buf (len ValueBytes): the pool body with the
// sequence number stamped over its first eight bytes.
func (in *Inputs) Value(seq uint64, buf []byte) []byte {
	copy(buf, in.pool[seq%uint64(len(in.pool))])
	binary.BigEndian.PutUint64(buf, seq)
	return buf
}

// Matches reports whether got is exactly proposal seq.
func (in *Inputs) Matches(seq uint64, got []byte) bool {
	body := in.pool[seq%uint64(len(in.pool))]
	if len(got) != len(body) || binary.BigEndian.Uint64(got) != seq {
		return false
	}
	return bytes.Equal(got[8:], body[8:])
}

// Due is the open loop's schedule: the offset of arrival i from the start of
// the loop.
func (in *Inputs) Due(i int) time.Duration {
	return in.Phase + time.Duration(i)*time.Second/time.Duration(in.w.OpenRate)
}

// hashName makes each workload draw different bytes from one seed.
func hashName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}
