package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// childEnv marks a process as a benchmark child, so that the test binary can
// stand in for the command (see TestMain).
const childEnv = "BYZBENCH_CHILD"

// Plan is one benchmark run: which workloads, from which seed, how long.
type Plan struct {
	Workloads []Workload
	Seed      int64
	Window    time.Duration // one pass's measure window
	Warm      time.Duration // steady-state warm-up before the window
	Passes    int           // measured children per workload
	Probes    int           // further set-up-only children per workload
	Traced    bool          // the per-layer run instead of the end-to-end one
}

// Host records where a result was measured.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
}

// MetricValue is one end-to-end metric of one workload.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Passes are the per-pass values (setup_s: per child). Value is their
	// median, for peak_rss_mb their maximum, and for the three timed metrics
	// the quiet quartile over the slices of all passes.
	Passes []float64 `json:"passes"`
}

// WorkloadResult is everything one run learned about one workload.
type WorkloadResult struct {
	Name        string  `json:"name"`
	Attempted   int     `json:"attempted"`
	Decided     int     `json:"decided"`
	Failed      int     `json:"failed"`
	FailedShare float64 `json:"failed_share"`
	// Samples and Cycles are pooled over the passes: the latency samples and
	// whole flush cycles behind decision_p50_ms and decision_p90_ms.
	Samples int `json:"samples"`
	Cycles  int `json:"cycles"`

	Metrics    map[string]MetricValue `json:"metrics"`
	Layers     map[string]float64     `json:"layers,omitempty"`
	Violations []string               `json:"violations,omitempty"`

	spans map[string][]Span
}

// Result is the schema of -out files, of results/baseline.json and of what
// `bench compare` reads.
type Result struct {
	Schema    int               `json:"schema"`
	Seed      int64             `json:"seed"`
	WindowS   float64           `json:"window_s"`
	Passes    int               `json:"passes"`
	Probes    int               `json:"probes"`
	Traced    bool              `json:"traced"`
	Host      Host              `json:"host"`
	Workloads []*WorkloadResult `json:"workloads"`
}

func (r *Result) workload(name string) *WorkloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Correct reports whether every gate of every workload held.
func (r *Result) Correct() bool {
	for _, w := range r.Workloads {
		if len(w.Violations) > 0 || w.Failed > 0 {
			return false
		}
	}
	return true
}

func thisHost() Host {
	return Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: 1, GoVersion: runtime.Version(),
		Platform: runtime.GOOS + "/" + runtime.GOARCH}
}

// spawn runs one child of this executable and decodes the JSON on the last
// line of its output. A child that exits non-zero after printing its result
// broke a gate: the result comes back with its Violations set.
func spawn(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-child"}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	line := bytes.TrimSpace(stdout)
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if jsonErr := json.Unmarshal(line, out); jsonErr != nil {
		if runErr != nil {
			return fmt.Errorf("child %v: %w", args, runErr)
		}
		return fmt.Errorf("child %v: bad result: %w", args, jsonErr)
	}
	return nil
}

func (pl Plan) pass(w Workload, window time.Duration, procs int, spans bool) (*PassResult, error) {
	var res PassResult
	err := spawn(&res, w.Name,
		"-seed", strconv.FormatInt(pl.Seed, 10),
		"-measure", window.String(), "-warm", pl.Warm.String(),
		"-procs", strconv.Itoa(procs), "-spans="+strconv.FormatBool(spans))
	return &res, err
}

// Run executes the plan. Passes of different workloads are interleaved, so a
// slow phase of the host costs every workload one pass and not one workload
// all of its passes; set-up probes are interleaved the same way.
func (pl Plan) Run() (*Result, error) {
	res := &Result{Schema: 1, Seed: pl.Seed, WindowS: pl.Window.Seconds(), Passes: pl.Passes,
		Probes: pl.Probes, Traced: pl.Traced, Host: thisHost()}
	if pl.Traced {
		for _, w := range pl.Workloads {
			wr, err := pl.tracedRun(w)
			if err != nil {
				return nil, err
			}
			res.Workloads = append(res.Workloads, wr)
		}
		return res, nil
	}
	passes := make(map[string][]*PassResult)
	probed := 0
	for i := 0; i < pl.Passes; i++ {
		for _, w := range pl.Workloads {
			pr, err := pl.pass(w, pl.Window, 1, false)
			if err != nil {
				return nil, err
			}
			passes[w.Name] = append(passes[w.Name], pr)
		}
		// Set-up probes are spread evenly behind the passes.
		for ; probed < pl.Probes*(i+1)/pl.Passes; probed++ {
			for _, w := range pl.Workloads {
				pr, err := pl.pass(w, 0, 1, false)
				if err != nil {
					return nil, err
				}
				passes[w.Name] = append(passes[w.Name], pr)
			}
		}
	}
	for _, w := range pl.Workloads {
		res.Workloads = append(res.Workloads, aggregate(w, passes[w.Name]))
	}
	return res, nil
}

// aggregate folds a workload's children into its result: every child gives a
// set-up sample and counts toward attempted and failed; the measured ones
// give one pass of each other metric. The counted metrics are the median over
// passes, the memory peak the maximum, and the timed ones the quiet quartile
// over the slices of all passes (slice.go).
func aggregate(w Workload, children []*PassResult) *WorkloadResult {
	wr := &WorkloadResult{Name: w.Name, Metrics: make(map[string]MetricValue)}
	cols := make(map[string][]float64)
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	var pooled []Slice
	for _, p := range children {
		wr.Attempted += p.Attempted
		wr.Failed += p.Failed
		wr.Violations = append(wr.Violations, p.Violations...)
		add("setup_s", p.SetupS)
		if p.MeasureS == 0 {
			continue
		}
		wr.Samples += p.Samples
		wr.Cycles += p.Cycles
		pooled = append(pooled, p.Slices...)
		add("values_per_s", p.ValuesPerS)
		add("decision_p50_ms", p.P50Ms)
		add("decision_p90_ms", p.P90Ms)
		add("proto_bits_per_value", p.ProtoBitsPerValue)
		add("alloc_kb_per_value", p.AllocKBPerValue)
		add("peak_rss_mb", p.PeakRSSMB)
	}
	wr.Decided = wr.Attempted - wr.Failed
	wr.FailedShare = ratio(float64(wr.Failed), float64(wr.Attempted))
	// The timed metrics pool the slices of all passes; their per-pass values
	// stay beside them as the run's own estimate of its spread.
	vps, p50, p90 := quietQuartiles(pooled)
	timedValue := map[string]float64{"values_per_s": vps, "decision_p50_ms": p50, "decision_p90_ms": p90}
	for _, def := range endToEnd {
		v, timed := timedValue[def.Name]
		switch {
		case timed:
		case def.Name == "peak_rss_mb":
			v = maxOf(cols[def.Name])
		default:
			v = median(cols[def.Name])
		}
		wr.Metrics[def.Name] = MetricValue{Value: v, Unit: def.Unit, Passes: cols[def.Name]}
	}
	// The protocol's cost is a count: on a closed loop every cycle is a full
	// one, so it must repeat exactly.
	if bits := cols["proto_bits_per_value"]; w.OpenRate == 0 {
		for _, b := range bits {
			if b != bits[0] {
				wr.Violations = append(wr.Violations, fmt.Sprintf("proto_bits_per_value differs between passes: %v", bits))
				break
			}
		}
	}
	return wr
}

// tracedRun is the per-layer run of one workload: an untraced and a traced
// pass (their difference is the tracing overhead), a pass on all processors,
// and the layer probes at the workload's shape.
func (pl Plan) tracedRun(w Workload) (*WorkloadResult, error) {
	plain, err := pl.pass(w, pl.Window, 1, false)
	if err != nil {
		return nil, err
	}
	traced, err := pl.pass(w, pl.Window, 1, true)
	if err != nil {
		return nil, err
	}
	wide, err := pl.pass(w, pl.Window, runtime.NumCPU(), false)
	if err != nil {
		return nil, err
	}
	var probes ProbeResult
	if err := spawn(&probes, probeChild, "-seed", strconv.FormatInt(pl.Seed, 10), w.Name, pl.Window.String()); err != nil {
		return nil, err
	}
	// Aggregated for the counts and the gates only: end-to-end numbers never
	// come from the traced run.
	wr := aggregate(w, []*PassResult{plain, traced, wide})
	wr.Metrics = nil
	wr.Violations = append(wr.Violations, probes.Violations...)
	l := traced.Layers
	for k, v := range probes.Layers {
		l[k] = v
	}
	l["harness.trace_overhead_pct"] = 100 * ratio(plain.ValuesPerS-traced.ValuesPerS, plain.ValuesPerS)
	l["sched.procsN_over_procs1"] = ratio(wide.ValuesPerS, plain.ValuesPerS)
	perGenUs := l["rs.encode_us_per_gen"] + l["rs.decode_us_per_gen"] + l["rs.consistent_us_per_gen"]
	l["rs.share_of_cycle_pct"] = 100 * ratio(perGenUs*l["consensus.generations_per_cycle"]*float64(w.N)/1e3, l["sched.cpu_ms_per_cycle"])
	wr.Layers = l
	wr.spans = map[string][]Span{w.Name + " traced pass": traced.Spans, w.Name + " probes": probes.Spans}
	return wr, nil
}
