package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"byzcons"
	"byzcons/internal/bitio"
	"byzcons/internal/bsb"
	"byzcons/internal/consensus"
	"byzcons/internal/gf"
	"byzcons/internal/node"
	"byzcons/internal/rs"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
	"byzcons/internal/wire"
)

// probeChild is the pseudo-workload name that selects the probe child.
const probeChild = "probes"

// ProbeResult is what the probe child reports: timed calls into the public
// functions of single layers, at one workload's shape.
type ProbeResult struct {
	Layers     map[string]float64 `json:"layers"`
	Spans      []Span             `json:"spans"`
	Violations []string           `json:"violations,omitempty"`
}

// probeBudget is how long one probe repeats its call batch.
const probeBudget = 100 * time.Millisecond

// symBits is c, the symbol width every workload's code uses (n <= 255).
const symBits = 8

// prober runs call batches and logs one span per batch.
type prober struct {
	log *spanLog
	out map[string]float64
	rng *rand.Rand
	bad []string
}

// timeIt repeats f for about probeBudget and returns the mean time of one
// call in microseconds.
func (pr *prober) timeIt(name string, f func()) float64 {
	f() // first call pays lazy table and matrix construction
	start := time.Now()
	calls := 0
	for time.Since(start) < probeBudget {
		f()
		calls++
	}
	end := time.Now()
	pr.log.add("probe:"+name, 0, -1, start, end)
	return float64(end.Sub(start)) / 1e3 / float64(calls)
}

func (pr *prober) fail(name string, err error) {
	pr.bad = append(pr.bad, fmt.Sprintf("probe %s: %v", name, err))
}

func (pr *prober) syms(n int) []gf.Sym {
	s := make([]gf.Sym, n)
	for i := range s {
		s[i] = gf.Sym(pr.rng.Intn(1 << symBits))
	}
	return s
}

// coding times the rs, gf and bitio calls one generation makes at one
// processor: encode its D bits, decode from k words, check n words.
func (pr *prober) coding(w Workload) {
	k := w.N - 2*w.T
	L := int64(w.Batch * (w.ValueBytes + 2) * 8)
	lanes := consensus.OptimalLanes(w.N, w.T, symBits, L, broadcastCost(w))
	field, err := gf.New(symBits)
	if err != nil {
		pr.fail("gf.New", err)
		return
	}
	code, err := rs.New(field, w.N, k)
	if err != nil {
		pr.fail("rs.New", err)
		return
	}
	ic, err := rs.NewInterleaved(code, lanes)
	if err != nil {
		pr.fail("rs.NewInterleaved", err)
		return
	}
	data := pr.syms(ic.DataSyms())
	words := ic.Encode(data)
	all := make([]int, w.N)
	for i := range all {
		all[i] = i
	}
	tail := all[w.N-k:]
	out := make([]gf.Sym, ic.DataSyms())
	pr.out["rs.encode_us_per_gen"] = pr.timeIt("rs.encode", func() { ic.Encode(data) })
	pr.out["rs.decode_us_per_gen"] = pr.timeIt("rs.decode", func() {
		if err := ic.DecodeInto(tail, words[w.N-k:], out); err != nil {
			pr.fail("rs.decode", err)
		}
	})
	pr.out["rs.consistent_us_per_gen"] = pr.timeIt("rs.consistent", func() {
		if !ic.Consistent(all, words) {
			pr.fail("rs.consistent", fmt.Errorf("a codeword was judged inconsistent"))
		}
	})
	for i := range out {
		if out[i] != data[i] {
			pr.fail("rs.decode", fmt.Errorf("decoded data differs from the encoded data"))
			break
		}
	}

	const kernelWords = 4096 // 32 KiB: larger than a generation, inside L1+L2
	src, dst := make([]uint64, kernelWords), make([]uint64, kernelWords)
	for i := range src {
		src[i] = pr.rng.Uint64()
	}
	tab := field.WordTabFull(0x53)
	us := pr.timeIt("gf.mulwordsxor", func() { tab.MulWordsXor(src, dst) })
	pr.out["gf.mulwordsxor_mb_per_s"] = kernelWords * 8 / us

	us = pr.timeIt("bitio.write", func() {
		bw := bitio.NewWriter()
		for _, s := range data {
			bw.Write(uint32(s), symBits)
		}
	})
	pr.out["bitio.write_mb_per_s"] = float64(len(data)*symBits/8) / us

	frame := &wire.Frame{Kind: wire.StepExchange, Instance: 1, StepSum: wire.StepSum("g0/match.sym"),
		Payloads: []any{words[0]}}
	var enc []byte
	pr.out["wire.encode_ns_per_frame"] = 1e3 * pr.timeIt("wire.encode", func() {
		if enc, err = frame.Append(enc[:0]); err != nil {
			pr.fail("wire.encode", err)
		}
	})
	pr.out["wire.decode_ns_per_frame"] = 1e3 * pr.timeIt("wire.decode", func() {
		f, err := wire.DecodeFrame(enc)
		if err != nil {
			pr.fail("wire.decode", err)
			return
		}
		wire.PutFrame(f)
	})
}

// pingPong times one round trip between two endpoints of a fresh mesh and,
// when oneWay is set, one one-way frame with the receiver draining
// concurrently.
func (pr *prober) pingPong(name string, mesh []transport.Endpoint, oneWay bool) (rttUs, sendUs float64) {
	defer func() {
		for _, ep := range mesh {
			ep.Close()
		}
	}()
	msg := make([]byte, 64)
	echoErr := make(chan error, 1)
	const trips = 2000
	go func() { // the far end echoes every frame
		for i := 0; i < trips; i++ {
			f, err := mesh[1].Recv()
			if err == nil {
				err = mesh[1].Send(0, f.Data)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	start := time.Now()
	for i := 0; i < trips; i++ {
		if err := mesh[0].Send(1, msg); err != nil {
			pr.fail(name, err)
			return
		}
		if _, err := mesh[0].Recv(); err != nil {
			pr.fail(name, err)
			return
		}
	}
	end := time.Now()
	if err := <-echoErr; err != nil {
		pr.fail(name, err)
	}
	pr.log.add("probe:"+name+".pingpong", 0, -1, start, end)
	rttUs = float64(end.Sub(start)) / 1e3 / trips
	if !oneWay {
		return
	}
	const frames = 20000
	drained := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, err := mesh[1].Recv(); err != nil {
				drained <- err
				return
			}
		}
		drained <- nil
	}()
	start = time.Now()
	for i := 0; i < frames; i++ {
		if err := mesh[0].Send(1, msg); err != nil {
			pr.fail(name, err)
			return
		}
	}
	sendEnd := time.Now()
	if err := <-drained; err != nil {
		pr.fail(name, err)
	}
	pr.log.add("probe:"+name+".send", 0, -1, start, sendEnd)
	return rttUs, float64(sendEnd.Sub(start)) / 1e3 / frames
}

// emptyRounds is the bare cost of a synchronous round on one backend: n=7
// processors run 200 one-bit Sync rounds and nothing else.
func (pr *prober) emptyRounds(name string, run func(sim.RunConfig, func(*sim.Proc) any) *sim.RunResult) float64 {
	const rounds = 200
	steps := make([]sim.StepID, rounds)
	for i := range steps {
		steps[i] = sim.StepID(fmt.Sprintf("probe/%d", i))
	}
	body := func(p *sim.Proc) any {
		for _, st := range steps {
			p.Sync(st, []bool{true}, 1, "probe", nil)
		}
		return nil
	}
	cfg := sim.RunConfig{N: 7, Seed: 1}
	if res := run(cfg, body); res.Err != nil { // first run pays goroutine and buffer start-up
		pr.fail(name, res.Err)
		return 0
	}
	start := time.Now()
	const reps = 3
	for i := 0; i < reps; i++ {
		if res := run(cfg, body); res.Err != nil {
			pr.fail(name, res.Err)
			return 0
		}
	}
	end := time.Now()
	pr.log.add("probe:"+name, 0, -1, start, end)
	return float64(end.Sub(start)) / 1e3 / (reps * rounds)
}

func (pr *prober) clusterRounds(name string, f transport.Factory) float64 {
	c := node.NewCluster(f)
	defer c.Close()
	if err := c.Connect(7); err != nil {
		pr.fail(name, err)
		return 0
	}
	return pr.emptyRounds(name, c.Run)
}

// substrate runs one 64-instance Broadcast_Single_Bit batch on the simulator
// (n=7, t=1, fault-free) and reports what one broadcast bit cost.
func (pr *prober) substrate(kind bsb.Kind) {
	const n, t, batch = 7, 1, 64
	insts := make([]bsb.Inst, batch)
	for i := range insts {
		insts[i] = bsb.Inst{Src: i % n, Kind: "probe", A: i}
	}
	name := "bsb." + strings.ToLower(kind.String())
	run := func() *sim.RunResult {
		return sim.Run(sim.RunConfig{N: n, Seed: 1}, func(p *sim.Proc) any {
			b, err := bsb.New(kind, p, n, t)
			if err != nil {
				p.Abort(err)
			}
			mine := make([]bool, batch)
			for i := range mine {
				mine[i] = i%3 == 0
			}
			return b.Broadcast("probe", insts, mine, "probe")
		})
	}
	var res *sim.RunResult
	us := pr.timeIt(name, func() { res = run() })
	if res.Err != nil {
		pr.fail(name, res.Err)
		return
	}
	for _, v := range res.Values {
		got := v.([]bool)
		for i := range got {
			if got[i] != (i%3 == 0) {
				pr.fail(name, fmt.Errorf("instance %d delivered the wrong bit", i))
				return
			}
		}
	}
	pr.out[name+".rounds_per_bit"] = float64(res.Meter.Rounds())
	pr.out[name+".bits_per_bit"] = float64(res.Meter.TotalBits()) / batch
	pr.out[name+".us_per_bit"] = us / batch
}

// fleetRate drives a bus fleet of the given shard count in a closed loop of
// one full cycle per shard for d and returns its values/s.
func (pr *prober) fleetRate(shards int, d time.Duration) float64 {
	name := fmt.Sprintf("fleet.s%d", shards)
	f, err := byzcons.OpenFleet(byzcons.FleetConfig{
		SessionConfig: byzcons.SessionConfig{
			Config: byzcons.Config{N: 7, T: 2}, Transport: byzcons.TransportBus,
			BatchValues: 64, Instances: 4,
		},
		Shards: shards,
	})
	if err != nil {
		pr.fail(name, err)
		return 0
	}
	defer f.Close()
	// One key per shard, so that every shard gets exactly one full cycle of
	// each burst; hashed keys would leave each shard a ragged second cycle.
	keys := make([][]byte, shards)
	for i, found := uint64(0), 0; found < shards; i++ {
		key := binary.BigEndian.AppendUint64(nil, i)
		if s := f.ShardFor(key); keys[s] == nil {
			keys[s] = key
			found++
		}
	}
	ctx := context.Background()
	const perShard = 256
	pend := make([]*byzcons.Pending, 0, perShard*shards)
	val := make([]byte, 64)
	decided := 0
	start := time.Now()
	for seq := uint64(0); time.Since(start) < d; {
		pend = pend[:0]
		for _, key := range keys {
			for i := 0; i < perShard; i++ {
				binary.BigEndian.PutUint64(val, seq)
				seq++
				p, err := f.ProposeAsync(ctx, key, val)
				if err != nil {
					pr.fail(name, err)
					return 0
				}
				pend = append(pend, p)
			}
		}
		for i, p := range pend {
			d := p.Wait(ctx)
			if d.Err != nil || d.Defaulted || binary.BigEndian.Uint64(d.Value) != seq-uint64(len(pend))+uint64(i) {
				pr.fail(name, fmt.Errorf("wrong decision: %+v", d))
				return 0
			}
			decided++
		}
	}
	end := time.Now()
	pr.log.add("probe:"+name, 0, -1, start, end)
	return float64(decided) / end.Sub(start).Seconds()
}

// probeMain is the probe child: args are the workload whose shape the coding
// probes take and the traced run's window, which scales the fleet probe.
func probeMain(t0 time.Time, seed int64, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench -child probes: want <workload> <window>")
		return 2
	}
	w, err := findWorkload(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -child probes:", err)
		return 2
	}
	window, err := time.ParseDuration(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -child probes:", err)
		return 2
	}
	pr := &prober{log: &spanLog{t0: t0}, out: make(map[string]float64), rng: rand.New(rand.NewSource(seed))}
	pr.coding(w)

	if mesh, err := transport.NewTCPMesh(2, transport.TCPOptions{}); err != nil {
		pr.fail("transport.tcp", err)
	} else {
		pr.out["transport.tcp_pingpong_us"], pr.out["transport.tcp_send_us_per_frame"] = pr.pingPong("transport.tcp", mesh, true)
	}
	pr.out["transport.bus_pingpong_us"], _ = pr.pingPong("transport.bus", transport.NewBus(2), false)

	pr.out["sim.empty_round_us"] = pr.emptyRounds("sim.empty_round", sim.Run)
	pr.out["node.empty_round_us.bus"] = pr.clusterRounds("node.empty_round.bus", transport.BusFactory{})
	pr.out["node.empty_round_us.tcp"] = pr.clusterRounds("node.empty_round.tcp", transport.TCPFactory{})

	for _, kind := range []bsb.Kind{bsb.Oracle, bsb.PhaseKing, bsb.EIG} {
		pr.substrate(kind)
	}
	// Shards can only overlap on more than one processor; every other probe
	// runs on one, like the end-to-end runs.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	pr.out["fleet.s2_over_s1"] = ratio(pr.fleetRate(2, window/2), pr.fleetRate(1, window/2))
	runtime.GOMAXPROCS(prev)

	out, _ := json.Marshal(ProbeResult{Layers: pr.out, Spans: pr.log.spans, Violations: pr.bad})
	fmt.Println(string(out))
	if len(pr.bad) > 0 {
		return 1
	}
	return 0
}
