package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"byzcons"
)

// PassResult is what one child process reports: one set-up sample and, when
// it measured, one pass of every end-to-end metric plus the layer counters of
// the same window.
type PassResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Procs    int    `json:"gomaxprocs"`
	Traced   bool   `json:"traced"`

	// SetupS runs from the child's main entry through Open to the first full
	// burst decided.
	SetupS float64 `json:"setup_s"`
	// MeasureS is the measure window's elapsed time; 0 for a set-up probe.
	MeasureS float64 `json:"measure_s"`

	Attempted int `json:"attempted"`
	Decided   int `json:"decided"`
	Failed    int `json:"failed"`
	Cycles    int `json:"cycles"`
	// Samples is the number of latency samples behind P50Ms/P90Ms.
	Samples int `json:"samples"`

	// Slices are the window's consecutive slices of about sliceLen each. The
	// three timed metrics below are the quiet quartile over them.
	Slices            []Slice `json:"slices,omitempty"`
	ValuesPerS        float64 `json:"values_per_s"`
	P50Ms             float64 `json:"decision_p50_ms"`
	P90Ms             float64 `json:"decision_p90_ms"`
	ProtoBitsPerValue float64 `json:"proto_bits_per_value"`
	AllocKBPerValue   float64 `json:"alloc_kb_per_value"`
	PeakRSSMB         float64 `json:"peak_rss_mb"`

	// Layers holds the per-layer metrics of the window. The ones that need
	// FlushReports or spans are present only when Traced.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []Span             `json:"spans,omitempty"`
	// Violations lists the correctness gates this child broke; a child with
	// any exits non-zero.
	Violations []string `json:"violations,omitempty"`
}

// childMain is the entry of `bench -child <workload> ...`: one fresh process,
// one session, one pass.
func childMain(t0 time.Time, args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	measure := fs.Duration("measure", 10*time.Second, "measure window; 0 = set-up sample only")
	warm := fs.Duration("warm", 2*time.Second, "warm phase after the first burst")
	procs := fs.Int("procs", 1, "GOMAXPROCS")
	traced := fs.Bool("spans", false, "record spans and FlushReports")
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "bench -child: missing workload")
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(*procs)
	if args[0] == probeChild {
		return probeMain(t0, *seed, fs.Args())
	}
	w, err := findWorkload(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -child:", err)
		return 2
	}
	res, err := runPass(t0, w, *seed, *warm, *measure, *procs, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -child:", err)
		return 1
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if len(res.Violations) > 0 { // the parent reads them from the result and says which
		return 1
	}
	return 0
}

// item is one proposal handed from the generator to the collector.
type item struct {
	p      *byzcons.Pending
	seq    uint64
	origin time.Time     // latency origin: the call (closed loop) or the due time (open loop)
	late   time.Duration // open loop: how long after its due time it was submitted
	rec    bool          // counts toward the measure window
	last   bool          // the collector reports back once this one decided
}

// snap is the program's public counters at one instant.
type snap struct {
	at    time.Time
	stats byzcons.SessionStats
	wire  byzcons.WireStats
	mem   runtime.MemStats
	cpu   time.Duration
}

// cycleRec is what the traced run keeps of one FlushReport.
type cycleRec struct {
	end time.Time // when OnFlush ran
	rep byzcons.FlushReport
}

// pass is one child's run state. The generator runs on the caller's
// goroutine, the collector on one other; there is no goroutine per value.
type pass struct {
	w      Workload
	in     *Inputs
	s      *byzcons.Session
	traced bool

	seq uint64
	buf []byte
	// items is sized so that the generator never blocks on the collector:
	// the open loop must keep its schedule while decisions are outstanding,
	// and 4096 is twenty seconds of arrivals at 200 values/s, far past the
	// latency limit that fails the run.
	items chan item
	done  chan time.Time // collector → generator: decision time of a `last` item

	// Collector-owned until done/close synchronises.
	attempted, failed int
	firstFailure      string
	recs              []valueRec  // the measure window's values, in submission order
	lateMs            []float64   // open loop: generator lateness of the same values
	decidedAt         []time.Time // traced: by seq

	// Generator-owned.
	bursts             []burstRec  // closed loop: the measure window's bursts
	originAt, submitAt []time.Time // traced: by seq

	mu     sync.Mutex // guards cycles (OnFlush runs on the flusher goroutine)
	cycles []cycleRec
}

func (p *pass) onFlush(rep byzcons.FlushReport) {
	now := time.Now()
	p.mu.Lock()
	p.cycles = append(p.cycles, cycleRec{end: now, rep: rep})
	p.mu.Unlock()
}

func (p *pass) collect() {
	ctx := context.Background()
	for it := range p.items {
		d := it.p.Wait(ctx)
		now := time.Now()
		ok := d.Err == nil && !d.Defaulted && p.in.Matches(it.seq, d.Value)
		p.attempted++
		if !ok {
			p.failed++
			if p.firstFailure == "" {
				p.firstFailure = fmt.Sprintf("value %d: err=%v defaulted=%v len=%d", it.seq, d.Err, d.Defaulted, len(d.Value))
			}
		}
		if it.rec {
			p.recs = append(p.recs, valueRec{latMs: float64(now.Sub(it.origin)) / 1e6, ok: ok})
			if p.w.OpenRate > 0 {
				p.lateMs = append(p.lateMs, float64(it.late)/1e6)
			}
		}
		if p.traced {
			p.decidedAt = append(p.decidedAt, now)
		}
		if it.last {
			p.done <- now
		}
	}
	close(p.done)
}

// submit proposes value seq. origin is the latency origin, the zero time for
// "now, at the call".
func (p *pass) submit(origin time.Time, rec, last bool) error {
	now := time.Now()
	var late time.Duration
	if origin.IsZero() {
		origin = now
	} else {
		late = now.Sub(origin)
	}
	pd, err := p.s.ProposeAsync(context.Background(), p.in.Value(p.seq, p.buf))
	if err != nil {
		return fmt.Errorf("ProposeAsync(%d): %w", p.seq, err)
	}
	if p.traced {
		p.originAt = append(p.originAt, origin)
		p.submitAt = append(p.submitAt, time.Now())
	}
	p.items <- item{p: pd, seq: p.seq, origin: origin, late: late, rec: rec, last: last}
	p.seq++
	return nil
}

// burst submits one full cycle's worth of values at once and waits until the
// last is decided.
func (p *pass) burst(rec bool) error {
	start := time.Now()
	n := p.w.Burst()
	for i := 0; i < n; i++ {
		if err := p.submit(time.Time{}, rec, i == n-1); err != nil {
			return err
		}
	}
	end := <-p.done
	if rec {
		p.bursts = append(p.bursts, burstRec{start, end})
	}
	return nil
}

func (p *pass) snapshot() snap {
	var sn snap
	sn.stats = p.s.Stats()
	sn.wire = p.s.WireStats()
	runtime.ReadMemStats(&sn.mem)
	sn.cpu = cpuTime()
	sn.at = time.Now()
	return sn
}

// closedLoop runs whole bursts until d has passed and returns the counters at
// the start and at the last decision.
func (p *pass) closedLoop(d time.Duration, rec bool) (from, to snap, err error) {
	from = p.snapshot()
	for time.Since(from.at) < d {
		if err = p.burst(rec); err != nil {
			return
		}
	}
	to = p.snapshot()
	return
}

// openLoop submits on the fixed schedule for warm+measure, recording the
// arrivals due in the measure part, then waits for every decision. The
// counters are taken at the two ends of the measure part, with the pipeline
// full at both.
func (p *pass) openLoop(warm, measure time.Duration) (from, to snap, backlog int, err error) {
	t0 := time.Now()
	sleepUntil := func(off time.Duration) { time.Sleep(time.Until(t0.Add(off))) }
	started := false
	for i := 0; ; i++ {
		off := p.in.Due(i)
		if off >= warm+measure {
			break
		}
		if !started && off >= warm {
			sleepUntil(warm)
			from = p.snapshot()
			started = true
		}
		sleepUntil(off)
		if err = p.submit(t0.Add(off), started, false); err != nil {
			return
		}
	}
	sleepUntil(warm + measure)
	backlog = p.s.PendingCount()
	to = p.snapshot()
	// One more value, not recorded, marks the end of the stream for the
	// collector.
	if err = p.submit(time.Time{}, false, true); err != nil {
		return
	}
	<-p.done
	return
}

func runPass(t0 time.Time, w Workload, seed int64, warm, measure time.Duration, procs int, traced bool) (*PassResult, error) {
	res := &PassResult{Workload: w.Name, Seed: seed, Procs: procs, Traced: traced}
	p := &pass{
		w: w, in: newInputs(w, seed), traced: traced,
		buf:   make([]byte, w.ValueBytes),
		items: make(chan item, 4096),
		done:  make(chan time.Time, 1),
	}
	cfg := w.SessionConfig(seed)
	if traced {
		cfg.OnFlush = p.onFlush
	}
	openStart := time.Now()
	s, err := byzcons.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("Open: %w", err)
	}
	defer s.Close()
	opened := time.Now()
	p.s = s
	go p.collect()

	if err := p.burst(false); err != nil {
		return nil, err
	}
	setupEnd := time.Now()
	res.SetupS = setupEnd.Sub(t0).Seconds()

	var from, to snap
	backlog := 0
	if measure > 0 {
		if w.OpenRate > 0 {
			from, to, backlog, err = p.openLoop(warm, measure)
		} else {
			if _, _, err = p.closedLoop(warm, false); err == nil {
				from, to, err = p.closedLoop(measure, true)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	close(p.items)
	for range p.done { // until the collector has exited
	}
	final := p.snapshot()
	snapMetrics := s.Snapshot()
	dials := s.MeshDials()

	res.Attempted, res.Failed = p.attempted, p.failed
	res.Decided = p.attempted - p.failed
	violate := func(format string, a ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, a...))
	}
	if p.failed > 0 {
		violate("%d of %d decisions failed or differ from their proposal (first: %s)", p.failed, p.attempted, p.firstFailure)
	}
	if final.stats.Failed != 0 || final.stats.Defaulted != 0 {
		violate("Stats(): Failed=%d Defaulted=%d, want 0 and 0", final.stats.Failed, final.stats.Defaulted)
	}
	if final.stats.Decided != p.attempted {
		violate("Stats().Decided=%d, harness attempted %d", final.stats.Decided, p.attempted)
	}
	if w.Transport == byzcons.TransportTCP {
		if dials != 1 {
			violate("MeshDials()=%d, want 1", dials)
		}
		if final.wire.Reconnects != 0 {
			violate("WireStats().Reconnects=%d, want 0", final.wire.Reconnects)
		}
	}
	res.PeakRSSMB = peakRSSMB()
	if measure == 0 {
		return res, nil
	}

	win := to.at.Sub(from.at)
	decided := float64(to.stats.Decided - from.stats.Decided)
	res.MeasureS = win.Seconds()
	res.Cycles = to.stats.Cycles - from.stats.Cycles
	res.Samples = len(p.recs)
	res.Slices = sliceWindow(w, measure, p.recs, p.bursts)
	res.ValuesPerS, res.P50Ms, res.P90Ms = quietQuartiles(res.Slices)
	if w.OpenRate > 0 && backlog >= w.OpenRate {
		violate("backlog at window end is %d values, one second of arrivals is %d", backlog, w.OpenRate)
	}
	res.ProtoBitsPerValue = ratio(float64(to.stats.Bits-from.stats.Bits), decided)
	res.AllocKBPerValue = ratio(float64(to.mem.TotalAlloc-from.mem.TotalAlloc)/1024, decided)
	if w.OpenRate > 0 && res.P90Ms > float64(openLimit)/1e6 {
		violate("decision_p90_ms=%.0f is over the %v latency limit even in the quiet quartile", res.P90Ms, openLimit)
	}

	res.Layers = counterLayers(w, from, to, snapMetrics, p)
	if traced {
		log := &spanLog{t0: t0}
		log.add("open", 0, -1, openStart, opened)
		tracedLayers(res, p, log, opened, from, to)
		res.Spans = log.spans
	}
	return res, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
