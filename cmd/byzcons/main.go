// Command byzcons runs a single simulated execution of the paper's
// consensus (or one of its companions) and prints the decision, the exact
// communication cost by protocol stage, and the paper's closed-form
// predictions for comparison.
//
// Examples:
//
//	byzcons -mode consensus -n 7 -t 2 -L 8192 -faulty 1,4 -adv equivocator
//	byzcons -mode broadcast -n 10 -t 3 -source 2 -L 100000
//	byzcons -mode fitzihirt -n 7 -t 2 -kappa 8 -L 65536
//	byzcons -mode naive -n 7 -t 2 -L 4096
//
// The serve mode drives the streaming Session as a real ingest loop:
// -ingest client goroutines propose values concurrently, the background
// flush policy (a full cycle of batches, bounded by -maxdelay) coalesces
// them into one long input per cycle, run as one consensus run, and
// per-cycle reports print as they commit. A networked -transport (bus or
// tcp) dials its mesh exactly once for the whole run — the summary's
// meshDials/conns counters prove the reuse. With -sweep it instead repeats
// the workload at doubling batch sizes to show the amortization curve:
//
//	byzcons -mode serve -n 7 -t 2 -values 64 -valbytes 64 -batch 16 -instances 4 -ingest 8
//	byzcons -mode serve -n 7 -t 2 -values 64 -sweep
//	byzcons -mode serve -n 7 -t 2 -values 64 -transport tcp -maxdelay 2ms
//
// With -chaos the serve run executes under a deterministic fault schedule —
// cuts, partitions, delay storms and crash-restarts firing at flush-cycle
// boundaries (@cN) or wall-clock offsets (@150ms) against the live mesh.
// The seed before the colon drives all injected jitter, so one
// (seed, schedule) pair replays one fault timeline; faulted cycles complete
// with attributed defaults (the degraded=[...] column) instead of failing,
// and the fired fault log prints with the summary:
//
//	byzcons -mode serve -n 4 -t 1 -values 64 -transport bus -chaos '7:cut(1,3)@c1;heal(1,3)@c2'
//	byzcons -mode serve -n 4 -t 1 -values 64 -transport tcp -chaos '3:partition(3)@c1;healall@c3;crash(2)@c4;restart(2)@c6'
//
// The cluster mode spawns one networked node per processor over a real
// transport (loopback TCP by default), runs a consensus workload end to end,
// and cross-checks the decision and metered traffic against a simulator
// reference run of the identical scenario, reporting the measured on-wire
// bytes next to the protocol-level bit meter:
//
//	byzcons -mode cluster -n 7 -t 2 -L 65536 -faulty 1,4 -adv equivocator
//	byzcons -mode cluster -transport bus -n 4 -t 1 -faulty 1 -adv silent
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	runtimetrace "runtime/trace"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"byzcons"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "byzcons:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		mode   = flag.String("mode", "consensus", "consensus | broadcast | fitzihirt | naive | serve | cluster | tracefmt")
		n      = flag.Int("n", 7, "number of processors")
		t      = flag.Int("t", 2, "Byzantine fault bound (t < n/3)")
		L      = flag.Int("L", 8192, "value length in bits")
		lanes  = flag.Int("lanes", 0, "generation lanes (0 = optimal D* of Eq. 2)")
		sym    = flag.Uint("sym", 0, "Reed-Solomon symbol bits (0 = auto, 8 or 16)")
		bsbStr = flag.String("bsb", "oracle", "1-bit broadcast: oracle | eig | phaseking")
		advStr = flag.String("adv", "none", "adversary: "+strings.Join(advNames(), " | "))
		faulty = flag.String("faulty", "", "comma-separated faulty processor ids")
		seed   = flag.Int64("seed", 1, "deterministic run seed")
		source = flag.Int("source", 0, "broadcast source processor")
		kappa  = flag.Uint("kappa", 16, "fitzihirt hash width in bits")
		eps    = flag.Float64("eps", 0, "proboracle per-receiver failure probability")
		trace  = flag.Bool("trace", false, "print per-generation progress to stderr")

		values    = flag.Int("values", 64, "serve: number of client values in the workload")
		valBytes  = flag.Int("valbytes", 64, "serve: bytes per client value")
		batch     = flag.Int("batch", 16, "serve: max values per batch; a flush cycle carries -instances batches")
		instances = flag.Int("instances", 4, "serve: batches per flush cycle, run together as one consensus input")
		ingest    = flag.Int("ingest", 8, "serve: concurrent client goroutines proposing values")
		maxDelay  = flag.Duration("maxdelay", byzcons.DefaultMaxDelay, "serve: flush-policy delay bound (values never wait longer than this for a full batch)")
		sweep     = flag.Bool("sweep", false, "serve: rerun the workload at doubling batch sizes")
		debugAddr = flag.String("debugaddr", "", "serve: listen address for the live debug endpoint (/metrics, /events, expvar, pprof); empty = off")
		traceFile = flag.String("tracefile", "", "serve: write the protocol event trace as JSONL to this file; tracefmt: the JSONL file to pretty-print")
		linger    = flag.Duration("linger", 0, "serve: keep the debug endpoint alive this long after the workload drains")

		chaosSpec = flag.String("chaos", "", "serve: deterministic fault schedule as seed:events, e.g. 7:cut(1,3)@c1;heal(1,3)@c2;crash(2)@c3 (networked transports only)")
		shards    = flag.Int("shards", 1, "serve: consensus groups sharing the one mesh (>1 runs a key-partitioned fleet; each shard batches and flushes independently)")

		transportStr = flag.String("transport", "", "cluster/serve: deployment backend: sim | bus | tcp (default: tcp for cluster, sim for serve)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (all modes; perf work starts from a profile, not a guess)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		execTrace  = flag.String("exectrace", "", "write a runtime execution trace to this file (go tool trace)")
	)
	flag.Parse()

	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return fmt.Errorf("exectrace: %w", err)
		}
		defer f.Close()
		if err := runtimetrace.Start(f); err != nil {
			return fmt.Errorf("exectrace: %w", err)
		}
		defer runtimetrace.Stop()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "byzcons: memprofile:", err)
			}
			f.Close()
		}()
	}

	kind, err := byzcons.ParseBroadcastKind(*bsbStr)
	if err != nil {
		return err
	}
	faultyIDs, err := parseIDs(*faulty)
	if err != nil {
		return err
	}
	behavior, err := makeAdversary(*advStr, *t)
	if err != nil {
		return err
	}
	sc := byzcons.Scenario{Faulty: faultyIDs, Behavior: behavior}

	// Deterministic per-processor inputs: all equal (the validity case).
	val := make([]byte, (*L+7)/8)
	for i := range val {
		val[i] = byte(0x41 + i%26)
	}
	inputs := make([][]byte, *n)
	for i := range inputs {
		inputs[i] = val
	}

	var traceW io.Writer
	if *trace {
		traceW = os.Stderr
	}
	var res *byzcons.Result
	switch *mode {
	case "serve":
		tk, err := parseTransport(*transportStr, byzcons.TransportSim)
		if err != nil {
			return err
		}
		cfg := byzcons.Config{N: *n, T: *t, SymBits: *sym, Lanes: *lanes, Broadcast: kind,
			BroadcastEpsilon: *eps, Seed: *seed}
		opts := serveOpts{
			values: *values, valBytes: *valBytes, batch: *batch, instances: *instances,
			ingest: *ingest, maxDelay: *maxDelay, sweep: *sweep,
			debugAddr: *debugAddr, traceFile: *traceFile, linger: *linger,
			chaos: *chaosSpec, shards: *shards,
		}
		return serve(os.Stdout, cfg, sc, tk, opts)
	case "tracefmt":
		if *traceFile == "" {
			return fmt.Errorf("tracefmt: pass the trace JSONL via -tracefile")
		}
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		return tracefmt(os.Stdout, f)
	case "cluster":
		tk, err := parseTransport(*transportStr, byzcons.TransportTCP)
		if err != nil {
			return err
		}
		cfg := byzcons.Config{N: *n, T: *t, SymBits: *sym, Lanes: *lanes, Broadcast: kind,
			BroadcastEpsilon: *eps, Seed: *seed}
		return cluster(os.Stdout, cfg, sc, inputs, *L, tk)
	case "consensus":
		cfg := byzcons.Config{N: *n, T: *t, SymBits: *sym, Lanes: *lanes, Broadcast: kind,
			BroadcastEpsilon: *eps, Seed: *seed, Trace: traceW}
		res, err = byzcons.Consensus(cfg, inputs, *L, sc)
	case "broadcast":
		cfg := byzcons.Config{N: *n, T: *t, SymBits: *sym, Lanes: *lanes, Broadcast: kind,
			BroadcastEpsilon: *eps, Seed: *seed}
		res, err = byzcons.Broadcast(cfg, *source, val, *L, sc)
	case "fitzihirt":
		cfg := byzcons.FHConfig{N: *n, T: *t, Kappa: *kappa, Broadcast: kind, Seed: *seed}
		res, err = byzcons.FitziHirt(cfg, inputs, *L, sc)
	case "naive":
		cfg := byzcons.NaiveConfig{N: *n, T: *t, Seed: *seed}
		res, err = byzcons.NaiveBitwise(cfg, inputs, *L, sc)
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		return err
	}

	report(os.Stdout, *mode, *n, *t, *L, kind, res)
	return nil
}

// parseTransport resolves the -transport flag, defaulting per mode.
func parseTransport(s string, def byzcons.TransportKind) (byzcons.TransportKind, error) {
	if s == "" {
		return def, nil
	}
	return byzcons.ParseTransportKind(s)
}

// cluster runs one consensus deployment with networked nodes over the
// selected transport, plus a simulator reference run of the identical
// scenario, and cross-checks the two: same decision, same metered protocol
// bits. It reports the measured wire traffic next to the metered bits —
// the encoded-bytes-per-protocol-bit ratio is the real cost of putting the
// paper's O(nL) result on a wire.
func cluster(w io.Writer, cfg byzcons.Config, sc byzcons.Scenario, inputs [][]byte, L int, kind byzcons.TransportKind) error {
	if kind == byzcons.TransportSim {
		return fmt.Errorf("cluster: pick a networked transport (bus or tcp)")
	}
	clusterRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, kind)
	if err != nil {
		return fmt.Errorf("cluster run (%v): %w", kind, err)
	}
	simRes, err := byzcons.ClusterConsensus(cfg, inputs, L, sc, byzcons.TransportSim)
	if err != nil {
		return fmt.Errorf("simulator reference: %w", err)
	}

	fmt.Fprintf(w, "mode=cluster transport=%s n=%d t=%d L=%d bits bsb=%v\n", clusterRes.Transport, cfg.N, cfg.T, L, cfg.Broadcast)
	fmt.Fprintf(w, "cluster:   consistent=%v defaulted=%v generations=%d diagnosisRuns=%d bits=%d rounds=%d\n",
		clusterRes.Consistent, clusterRes.Defaulted, clusterRes.Generations, clusterRes.DiagnosisRuns, clusterRes.Bits, clusterRes.Rounds)
	fmt.Fprintf(w, "simulator: consistent=%v defaulted=%v generations=%d diagnosisRuns=%d bits=%d rounds=%d\n",
		simRes.Consistent, simRes.Defaulted, simRes.Generations, simRes.DiagnosisRuns, simRes.Bits, simRes.Rounds)

	switch {
	case !clusterRes.Consistent || !simRes.Consistent:
		return fmt.Errorf("cluster: inconsistent honest decisions")
	case !bytes.Equal(clusterRes.Value, simRes.Value) || clusterRes.Defaulted != simRes.Defaulted:
		return fmt.Errorf("cluster: decision diverges from the simulator reference")
	case clusterRes.Generations != simRes.Generations || clusterRes.DiagnosisRuns != simRes.DiagnosisRuns:
		return fmt.Errorf("cluster: progress diverges from the simulator reference")
	case clusterRes.Bits != simRes.Bits || clusterRes.Rounds != simRes.Rounds:
		return fmt.Errorf("cluster: metered %d bits in %d rounds, simulator metered %d in %d",
			clusterRes.Bits, clusterRes.Rounds, simRes.Bits, simRes.Rounds)
	}
	fmt.Fprintln(w, "cross-check: cluster and simulator decisions identical (meters identical)")

	encoded := clusterRes.Wire.BytesSent * 8
	fmt.Fprintf(w, "wire: frames=%d writes=%d frames/write=%s encodedBytes=%d encodedBits/meteredBits=%.2f\n",
		clusterRes.Wire.FramesSent, clusterRes.Wire.Writes, framesPerWrite(clusterRes.Wire),
		clusterRes.Wire.BytesSent, float64(encoded)/float64(clusterRes.Bits))
	return nil
}

// framesPerWrite renders the transport's coalescing factor: frames accepted
// per socket write issued. The in-process bus issues no writes.
func framesPerWrite(ws byzcons.WireStats) string {
	if ws.Writes == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(ws.FramesSent)/float64(ws.Writes))
}

// printWire prints a serve summary's transport line; the simulator moves no
// encoded bytes and prints none.
func printWire(printf func(string, ...any), ws byzcons.WireStats, values int) {
	if ws.BytesSent == 0 {
		return
	}
	printf("wire: frames=%d writes=%d frames/write=%s conns=%d encodedBytes=%d encoded=%.1f bytes/value reconnects=%d peerFlaps=%d",
		ws.FramesSent, ws.Writes, framesPerWrite(ws), ws.Conns, ws.BytesSent, float64(ws.BytesSent)/float64(values), ws.Reconnects, ws.PeerFlaps)
}

// serveOpts bundles the serve-mode knobs.
type serveOpts struct {
	values, valBytes, batch, instances, ingest int
	maxDelay                                   time.Duration
	sweep                                      bool
	// debugAddr, when non-empty, serves the live debug endpoint for the
	// run's lifetime: /metrics (text exposition), /events (trace JSONL),
	// /debug/vars (expvar) and /debug/pprof.
	debugAddr string
	// traceFile, when non-empty, streams every protocol trace event to this
	// file as JSONL (feed it back through -mode tracefmt).
	traceFile string
	// linger keeps the process (and the debug endpoint) alive this long
	// after the workload drains, so scrapers get a stable target.
	linger time.Duration
	// chaos, when non-empty, runs the session under a deterministic fault
	// schedule (SessionConfig.Chaos); the fired fault log prints with the
	// summary. Requires a networked transport.
	chaos string
	// shards, when > 1, serves a key-partitioned Fleet instead of a single
	// Session: values route to shards by key hash and each shard's flush
	// cycles run concurrently over the one shared mesh. A chaos schedule
	// needs exactly one shard (FleetConfig.Validate says why).
	shards int
}

// served is what serve uses of either surface — a Session, or a Fleet when
// -shards > 1 — beyond proposing and Stats, whose shapes differ between the
// two.
type served interface {
	debugSource
	Drain(context.Context) error
	Close() error
	WireStats() byzcons.WireStats
	MeshDials() int
	Snapshot() byzcons.MetricsSnapshot
	ChaosLog() []byzcons.ChaosRecord
}

// serve drives the streaming Session — or, with shards > 1, a key-partitioned
// Fleet — over a synthetic ingest workload: `ingest` client goroutines
// propose values concurrently, flush cycles are triggered by the background
// policy (a full cycle of batches, or maxDelay for a trickle), per-cycle
// reports print live, and the mesh of a networked transport is dialed
// exactly once for the whole run. With sweep it instead repeats the workload
// at doubling batch sizes to show the amortization curve.
//
// All output funnels through one printer goroutine: per-cycle reports are
// printed from OnFlush on each shard's flushing goroutine, concurrently with
// the ingest loop and the summary, and a shared line channel is what keeps
// concurrent lines whole instead of interleaved mid-line.
func serve(w io.Writer, cfg byzcons.Config, sc byzcons.Scenario, tk byzcons.TransportKind, opts serveOpts) error {
	if opts.values < 1 || opts.valBytes < 1 || opts.batch < 1 || opts.instances < 1 || opts.ingest < 1 {
		return fmt.Errorf("serve: values, valbytes, batch, instances and ingest must all be >= 1")
	}
	workload := func(i int) []byte {
		val := make([]byte, opts.valBytes)
		for j := range val {
			val[j] = byte(0x41 + (i+j)%26)
		}
		return val
	}

	// The single printer goroutine: every line from every goroutine goes
	// through this channel, closed only after all writers retired.
	lines := make(chan string, 64)
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for ln := range lines {
			fmt.Fprintln(w, ln)
		}
	}()
	printf := func(format string, a ...any) { lines <- fmt.Sprintf(format, a...) }
	defer func() { close(lines); <-printed }()

	sharded := opts.shards > 1
	shardsNote := ""
	if sharded {
		shardsNote = fmt.Sprintf(" shards=%d", opts.shards)
	}
	printf("mode=serve transport=%v n=%d t=%d%s workload=%d values x %d bytes ingest=%d",
		tk, cfg.N, cfg.T, shardsNote, opts.values, opts.valBytes, opts.ingest)

	if opts.sweep {
		if sharded {
			return fmt.Errorf("serve: -sweep and -shards are mutually exclusive")
		}
		return serveSweep(printf, cfg, sc, tk, opts.values, opts.batch, opts.instances, workload)
	}

	fcfg := byzcons.FleetConfig{
		SessionConfig: byzcons.SessionConfig{
			Config:      cfg,
			Scenario:    sc,
			Transport:   tk,
			Chaos:       opts.chaos,
			BatchValues: opts.batch,
			Instances:   opts.instances,
			Policy:      byzcons.FlushPolicy{MaxValues: opts.batch * opts.instances, MaxDelay: opts.maxDelay},
		},
		Shards: opts.shards,
	}
	if opts.traceFile != "" {
		traceOut, err := os.Create(opts.traceFile)
		if err != nil {
			return fmt.Errorf("tracefile: %w", err)
		}
		defer traceOut.Close()
		fcfg.TraceSink = traceOut
	}
	if opts.debugAddr != "" {
		// The /events page reads the ring; give it one even without a file.
		fcfg.TraceRing = 4096
	}

	// Live per-cycle reporting from OnFlush (on a fleet each line names the
	// shard whose policy fired the cycle). Close waits out every cycle, so
	// no report line follows the summary.
	shardCol := func(v any) string {
		if !sharded {
			return ""
		}
		return fmt.Sprintf("%6v ", v)
	}
	fcfg.OnFlush = func(rep byzcons.FlushReport) {
		perValue := 0.0
		if rep.Values > 0 {
			perValue = float64(rep.Bits) / float64(rep.Values)
		}
		line := fmt.Sprintf("%s%6d %8d %10d %10d %12.1f %10.2f",
			shardCol(rep.Shard), rep.Cycle, rep.Values, rep.Bits, rep.Batches[0].PipelinedRounds, perValue,
			float64(rep.Timing.Cycle)/float64(time.Millisecond))
		if len(rep.PeersDown) > 0 {
			line += fmt.Sprintf("  peersDown=%v", rep.PeersDown)
		}
		if len(rep.DegradedPeers) > 0 {
			line += fmt.Sprintf("  degraded=%v", rep.DegradedPeers)
		}
		lines <- line
	}

	// The two surfaces differ in the propose call (a fleet routes by key:
	// value i proposes under "key-i", so the value→shard mapping is the
	// partitioner's, not the client's) and in the shape of Stats; everything
	// else below is shared.
	var (
		d       served
		propose func(ctx context.Context, i int, val []byte) (byzcons.Decision, error)
		stats   func() byzcons.FleetStats
	)
	if sharded {
		f, err := byzcons.OpenFleet(fcfg)
		if err != nil {
			return err
		}
		d, stats = f, f.Stats
		propose = func(ctx context.Context, i int, val []byte) (byzcons.Decision, error) {
			return f.Propose(ctx, []byte(fmt.Sprintf("key-%d", i)), val)
		}
	} else {
		s, err := byzcons.Open(fcfg.SessionConfig)
		if err != nil {
			return err
		}
		d = s
		stats = func() byzcons.FleetStats { return byzcons.FleetStats{Shards: 1, Aggregate: s.Stats()} }
		propose = func(ctx context.Context, _ int, val []byte) (byzcons.Decision, error) {
			return s.Propose(ctx, val)
		}
	}
	defer d.Close()

	if opts.debugAddr != "" {
		srv, addr, err := startDebugServer(opts.debugAddr, d)
		if err != nil {
			return err
		}
		defer srv.Close()
		printf("debug endpoint: http://%s (/metrics /events /debug/vars /debug/pprof)", addr)
	}

	printf("%s%6s %8s %10s %10s %12s %10s",
		shardCol("shard"), "cycle", "values", "bits", "prounds", "bits/value", "cycleMs")

	// The ingest loop: each client goroutine proposes its share of the
	// workload and blocks per proposal, like a real submitter would.
	ctx := context.Background()
	errs := make(chan error, opts.ingest)
	var clients sync.WaitGroup
	for g := 0; g < opts.ingest; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			for i := g; i < opts.values; i += opts.ingest {
				val := workload(i)
				dec, err := propose(ctx, i, val)
				if err != nil {
					errs <- fmt.Errorf("serve: value %d: %w", i, err)
					return
				}
				if !bytes.Equal(dec.Value, val) {
					errs <- fmt.Errorf("serve: value %d decided %x, want %x", i, dec.Value, val)
					return
				}
			}
		}(g)
	}
	clients.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	if err := d.Drain(ctx); err != nil {
		return err
	}
	if opts.linger > 0 {
		printf("workload drained; lingering %v for the debug endpoint", opts.linger)
		time.Sleep(opts.linger)
	}
	st := stats()
	ws := d.WireStats()
	dials := d.MeshDials()
	snap := d.Snapshot()
	chaosLog := d.ChaosLog()
	d.Close() // the last report line before the summary

	for _, rec := range chaosLog {
		line := fmt.Sprintf("chaos[%d] %s fired@c%d", rec.Index, rec.Event, rec.Cycle)
		if rec.Cycle < 0 {
			line = fmt.Sprintf("chaos[%d] %s fired@wall", rec.Index, rec.Event)
		}
		if rec.Err != "" {
			line += " err=" + rec.Err
		}
		printf("%s", line)
	}

	agg := st.Aggregate
	printf("decided=%d defaulted=%d cycles=%d%s meshDials=%d",
		agg.Decided, agg.Defaulted, agg.Cycles, shardsNote, dials)
	for s, ss := range st.PerShard {
		printf("shard %d: decided=%d cycles=%d bits=%d", s, ss.Decided, ss.Cycles, ss.Bits)
	}
	printf("pipelined rounds=%d totalBits=%d amortized=%.1f bits/value",
		agg.Rounds, agg.Bits, float64(agg.Bits)/float64(opts.values))
	if h := snap.Histograms["engine_decision_ns"]; h.Count > 0 {
		printf("decision latency: p50=%v p99=%v max=%v over %d decisions",
			time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max), h.Count)
	}
	printWire(printf, ws, opts.values)
	return nil
}

// serveSweep reruns the workload at doubling batch sizes (manual flushing,
// so each row is one deterministic drain) to render the amortization curve.
func serveSweep(printf func(string, ...any), cfg byzcons.Config, sc byzcons.Scenario, tk byzcons.TransportKind,
	values, batch, instances int, workload func(int) []byte) error {
	var batches []int
	for b := 1; b < batch; b *= 2 {
		batches = append(batches, b)
	}
	batches = append(batches, batch)
	printf("%8s %10s %10s %8s %14s", "batch", "instances", "rounds", "bits", "bits/value")
	ctx := context.Background()
	for _, b := range batches {
		s, err := byzcons.Open(byzcons.SessionConfig{
			Config:      cfg,
			Scenario:    sc,
			Transport:   tk,
			BatchValues: b,
			Instances:   instances,
			Policy:      byzcons.FlushPolicy{MaxValues: -1, MaxDelay: -1},
		})
		if err != nil {
			return err
		}
		pendings := make([]*byzcons.Pending, values)
		for i := range pendings {
			if pendings[i], err = s.ProposeAsync(ctx, workload(i)); err != nil {
				s.Close()
				return err
			}
		}
		if err := s.Drain(ctx); err != nil {
			s.Close()
			return err
		}
		for i, p := range pendings {
			if d := p.Wait(ctx); d.Err != nil {
				s.Close()
				return fmt.Errorf("serve: value %d: %w", i, d.Err)
			}
		}
		st := s.Stats()
		s.Close()
		printf("%8d %10d %10d %8d %14.1f",
			b, instances, st.Rounds, st.Bits, float64(st.Bits)/float64(values))
	}
	return nil
}

// report renders a run summary with the paper's closed-form predictions.
func report(w io.Writer, mode string, n, t, L int, kind byzcons.BroadcastKind, res *byzcons.Result) {
	fmt.Fprintf(w, "mode=%s n=%d t=%d L=%d bits bsb=%v\n", mode, n, t, L, kind)
	fmt.Fprintf(w, "consistent=%v defaulted=%v", res.Consistent, res.Defaulted)
	if res.Consistent && len(res.Value) > 0 {
		snippet := res.Value
		if len(snippet) > 16 {
			snippet = snippet[:16]
		}
		fmt.Fprintf(w, " value[0:16]=%x", snippet)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "generations=%d diagnosisRuns=%d (bound t(t+1)=%d) isolated=%v\n",
		res.Generations, res.DiagnosisRuns, t*(t+1), res.Isolated)
	fmt.Fprintf(w, "rounds=%d totalBits=%d honestBits=%d\n", res.Rounds, res.Bits, res.HonestBits)

	tags := make([]string, 0, len(res.BitsByTag))
	for tag := range res.BitsByTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	fmt.Fprintln(w, "bits by stage:")
	for _, tag := range tags {
		fmt.Fprintf(w, "  %-12s %12d  (%.1f%%)\n", tag, res.BitsByTag[tag],
			100*float64(res.BitsByTag[tag])/float64(res.Bits))
	}

	if mode == "consensus" {
		B := byzcons.DefaultBroadcastCost(n)
		D := byzcons.OptimalD(n, t, 8, int64(L), B)
		fmt.Fprintln(w, "paper predictions:")
		fmt.Fprintf(w, "  Eq.1 worst case Ccon  = %d bits (D=%d, B=%d)\n", byzcons.PredictCcon(n, t, int64(L), D, B), D, B)
		fmt.Fprintf(w, "  Eq.3 leading term     = %d bits (n(n-1)/(n-2t)·L)\n", byzcons.PredictLeading(n, t, int64(L)))
		fmt.Fprintf(w, "  naive bitwise baseline = %d bits (2n²L)\n", byzcons.PredictNaive(byzcons.NaiveConfig{N: n, T: t}, int64(L)))
	}
}

func parseIDs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad faulty id %q", p)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

func advNames() []string {
	return []string{"none", "equivocator", "matchliar", "falsedetector", "trustliar",
		"symbolliar", "silent", "random", "edgemiser"}
}

func makeAdversary(name string, t int) (byzcons.Adversary, error) {
	switch name {
	case "none", "":
		return nil, nil
	case "equivocator":
		return byzcons.Equivocator{}, nil
	case "matchliar":
		return byzcons.MatchLiar{}, nil
	case "falsedetector":
		return byzcons.FalseDetector{}, nil
	case "trustliar":
		return byzcons.Attacks{byzcons.Equivocator{}, byzcons.TrustLiar{}}, nil
	case "symbolliar":
		return byzcons.Attacks{byzcons.Equivocator{}, byzcons.SymbolLiar{}}, nil
	case "silent":
		return byzcons.Silent{}, nil
	case "random":
		return byzcons.RandomByz{P: 0.4}, nil
	case "edgemiser":
		return byzcons.EdgeMiser{T: t}, nil
	default:
		return nil, fmt.Errorf("unknown adversary %q (want %s)", name, strings.Join(advNames(), ", "))
	}
}
