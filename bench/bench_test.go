package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command when the harness
// re-executes itself as a child (spawn sets childEnv).
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(time.Now(), os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile or median reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// which the benchmark's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %v, %v; Python gives 10, 30", q1, q3)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread(90,100,110) = %v, want 0.2", got)
	}
}

func TestQuietQuartile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} // 1..9: rank ceil(9/4) = 3 from the best end
	if got := quietQuartile(xs, "lower"); got != 3 {
		t.Errorf("quietQuartile(1..9, lower) = %v, want 3", got)
	}
	if got := quietQuartile(xs, "higher"); got != 7 {
		t.Errorf("quietQuartile(1..9, higher) = %v, want 7", got)
	}
	if got := quietQuartile([]float64{5, 4, 6}, "lower"); got != 4 {
		t.Errorf("quietQuartile of three = %v, want the best (4)", got)
	}
	if got := quietQuartile(nil, "lower"); got != 0 {
		t.Errorf("quietQuartile(nil) = %v, want 0", got)
	}
}

func TestSliceWindow(t *testing.T) {
	// Closed loop: 6 bursts of 256 values in a 4 s window make 2 slices of 3
	// bursts; bursts last 100, 200, 300, 100, 100, 100 ms, back to back.
	closed := workloads[0]
	var recs []valueRec
	var bursts []burstRec
	at := time.Unix(1000, 0)
	for _, ms := range []int{100, 200, 300, 100, 100, 100} {
		d := time.Duration(ms) * time.Millisecond
		bursts = append(bursts, burstRec{at, at.Add(d)})
		at = at.Add(d)
		for i := 0; i < closed.Burst(); i++ {
			recs = append(recs, valueRec{latMs: float64(ms), ok: true})
		}
	}
	sl := sliceWindow(closed, 4*time.Second, recs, bursts)
	if len(sl) != 2 {
		t.Fatalf("%d slices, want 2", len(sl))
	}
	want := []Slice{
		{ValuesPerS: 768 / 0.6, P50Ms: 200, P90Ms: 300, Samples: 768},
		{ValuesPerS: 768 / 0.3, P50Ms: 100, P90Ms: 100, Samples: 768},
	}
	for i := range want {
		if math.Abs(sl[i].ValuesPerS-want[i].ValuesPerS) > 1e-6 || sl[i].P50Ms != want[i].P50Ms ||
			sl[i].P90Ms != want[i].P90Ms || sl[i].Samples != want[i].Samples {
			t.Errorf("closed slice %d = %+v, want %+v", i, sl[i], want[i])
		}
	}

	// Open loop: 800 arrivals in 4 s make 2 slices of 400 over 2 s each; a
	// value over the latency limit, or a wrong one, is not served.
	open, _ := findWorkload("tcp7_rtt1ms_open200")
	recs = recs[:0]
	for i := 0; i < 800; i++ {
		recs = append(recs, valueRec{latMs: 600, ok: true})
	}
	recs[0].latMs = 1600
	recs[1].ok = false
	sl = sliceWindow(open, 4*time.Second, recs, nil)
	if len(sl) != 2 || sl[0].ValuesPerS != 199 || sl[1].ValuesPerS != 200 || sl[0].P90Ms != 600 {
		t.Errorf("open slices = %+v, want 199 and 200 values/s", sl)
	}
	if sl := sliceWindow(open, time.Second, recs[:200], nil); len(sl) != 1 {
		t.Errorf("a window shorter than a slice gives %d slices, want 1", len(sl))
	}
}

func TestAggregate(t *testing.T) {
	w := workloads[0]
	pass := func(rss, setup float64, vps ...float64) *PassResult {
		p := &PassResult{MeasureS: 6, Attempted: 100, Samples: 90, Cycles: 3, SetupS: setup,
			ProtoBitsPerValue: 13169.625, AllocKBPerValue: 69, PeakRSSMB: rss}
		for _, v := range vps { // a slice at v values/s decides in 240000/v ms
			p.Slices = append(p.Slices, Slice{ValuesPerS: v, P50Ms: 240000 / v, P90Ms: 480000 / v})
		}
		p.ValuesPerS, p.P50Ms, p.P90Ms = quietQuartiles(p.Slices)
		return p
	}
	probe := &PassResult{Attempted: 10, SetupS: 0.9}
	wr := aggregate(w, []*PassResult{
		pass(11, 0.2, 1500, 1600, 1000), probe, pass(14, 0.1, 1200, 800, 1590), pass(12, 0.3, 1580, 1570, 1560)})
	// Nine slices: the third best is 1580 values/s.
	want := map[string]float64{"values_per_s": 1580, "decision_p50_ms": 240000.0 / 1580, "decision_p90_ms": 480000.0 / 1580,
		"peak_rss_mb": 14, "setup_s": 0.25, "proto_bits_per_value": 13169.625, "alloc_kb_per_value": 69}
	for name, v := range want {
		if got := wr.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := wr.Metrics["values_per_s"].Passes; !reflect.DeepEqual(got, []float64{1600, 1590, 1580}) {
		t.Errorf("values_per_s per pass = %v, want each pass's best of three slices", got)
	}
	if wr.Attempted != 310 || wr.Samples != 270 || wr.Cycles != 9 || len(wr.Violations) != 0 {
		t.Errorf("attempted=%d samples=%d cycles=%d violations=%v", wr.Attempted, wr.Samples, wr.Cycles, wr.Violations)
	}
	if n := len(wr.Metrics["setup_s"].Passes); n != 4 {
		t.Errorf("setup_s has %d samples, want one per child (4)", n)
	}

	drift := pass(11, 0.2, 1500)
	drift.ProtoBitsPerValue++
	if wr := aggregate(w, []*PassResult{pass(11, 0.2, 1500), drift}); len(wr.Violations) != 1 {
		t.Errorf("closed loop with differing proto_bits_per_value: violations = %v, want one", wr.Violations)
	}
	open, _ := findWorkload("tcp7_rtt1ms_open200")
	if wr := aggregate(open, []*PassResult{pass(11, 0.6, 200), drift}); len(wr.Violations) != 0 {
		t.Errorf("open loop may differ in proto_bits_per_value: violations = %v", wr.Violations)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	open, _ := findWorkload("tcp7_rtt1ms_open200")
	a, b, c := newInputs(open, 7), newInputs(open, 7), newInputs(open, 8)
	bufA, bufB, bufC := make([]byte, 64), make([]byte, 64), make([]byte, 64)
	differ := false
	for seq := uint64(0); seq < 1000; seq++ {
		va, vb, vc := a.Value(seq, bufA), b.Value(seq, bufB), c.Value(seq, bufC)
		if string(va) != string(vb) {
			t.Fatalf("value %d differs between equal seeds", seq)
		}
		differ = differ || string(va) != string(vc)
		if !a.Matches(seq, vb) || a.Matches(seq+1, vb) || a.Matches(seq, vc) {
			t.Fatalf("Matches misjudges value %d", seq)
		}
		if a.Due(int(seq)) != b.Due(int(seq)) {
			t.Fatalf("arrival %d differs between equal seeds", seq)
		}
	}
	if !differ {
		t.Error("value bytes do not depend on the seed")
	}
	if a.Due(0) == c.Due(0) {
		t.Error("arrival schedule does not depend on the seed")
	}
	if gap := a.Due(11) - a.Due(10); gap != 5*time.Millisecond {
		t.Errorf("arrival spacing = %v, want 5ms", gap)
	}
	if a.Due(0) < 0 || a.Due(0) >= 5*time.Millisecond {
		t.Errorf("schedule phase = %v, want within one spacing", a.Due(0))
	}
	other := newInputs(workloads[0], 7)
	if string(other.Value(0, make([]byte, 64))) == string(a.Value(0, bufA)) {
		t.Error("two workloads draw the same bytes from one seed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "burst", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "submit", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "wait", Start: 10 * ms, End: 95 * ms},
		{ID: 4, Parent: 1, Name: "cycle", Start: 20 * ms, End: 90 * ms}, // inside wait: counted once
		{ID: 5, Parent: 4, Name: "inner", Start: 30 * ms, End: 40 * ms},
		{ID: 6, Parent: 4, Name: "inner", Start: 35 * ms, End: 50 * ms},  // overlaps its sibling
		{ID: 7, Parent: 4, Name: "inner", Start: 80 * ms, End: 120 * ms}, // runs past its parent
	}
	want := map[int]time.Duration{1: 5 * ms, 2: 10 * ms, 3: 85 * ms, 4: 40 * ms, 5: 10 * ms, 6: 15 * ms, 7: 40 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestChromeTraceLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	log := &spanLog{t0: time.Now()}
	b := log.add("burst", 0, 3, log.t0, log.t0.Add(time.Second))
	log.add("cycle", b, 3, log.t0.Add(time.Millisecond), log.t0.Add(time.Second))
	if err := writeChromeTrace(path, map[string][]Span{"w": log.spans}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Name != "cycle" || doc.TraceEvents[2].Tid != 2 ||
		doc.TraceEvents[2].Args["parent"] != float64(b) {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &Result{Schema: 1, Seed: 9, WindowS: 10, Passes: 3, Probes: 6, Host: thisHost(),
		Workloads: []*WorkloadResult{{
			Name: "tcp7_small", Attempted: 5, Decided: 4, Failed: 1, FailedShare: 0.2, Samples: 4, Cycles: 1,
			Metrics:    map[string]MetricValue{"values_per_s": {Value: 1550.25, Unit: "1/s", Passes: []float64{1500, 1550.25, 1600}}},
			Layers:     map[string]float64{"wire.expansion": 3.5},
			Violations: []string{"x"},
		}}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Errorf("round trip changed the result:\n in  %+v\n out %+v", in.Workloads[0], out.Workloads[0])
	}
}

func TestVerdicts(t *testing.T) {
	lower := MetricDef{Name: "decision_p50_ms", Better: "lower", Bound: 0.10}
	higher := MetricDef{Name: "values_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		row  Row
		want string
	}{
		{Row{Def: lower, A: 100, B: 105}, "within"},
		{Row{Def: lower, A: 100, B: 120}, "worse"},
		{Row{Def: lower, A: 100, B: 80}, "better"},
		{Row{Def: higher, A: 100, B: 80}, "worse"},
		{Row{Def: higher, A: 100, B: 120}, "better"},
		{Row{Def: higher, A: 100, B: 120, SpreadA: 0.3}, "unresolved"},
		{Row{Def: lower, A: 100, B: 101, SpreadB: 0.11}, "unresolved"},
	} {
		if got := c.row.Verdict(); got != c.want {
			t.Errorf("%s %v -> %v (spreads %v, %v): %s, want %s", c.row.Def.Name, c.row.A, c.row.B, c.row.SpreadA, c.row.SpreadB, got, c.want)
		}
	}
	if ch := (Row{A: 200, B: 150}).Change(); ch != -0.25 {
		t.Errorf("Change(200 -> 150) = %v, want -0.25 (base is A)", ch)
	}
}

func TestCompareSetsUsesMedians(t *testing.T) {
	run := func(vps float64) *Result {
		wr := &WorkloadResult{Name: "tcp7_small", Metrics: map[string]MetricValue{}}
		for _, def := range endToEnd {
			wr.Metrics[def.Name] = MetricValue{Value: 1}
		}
		wr.Metrics["values_per_s"] = MetricValue{Value: vps}
		return &Result{Workloads: []*WorkloadResult{wr}}
	}
	rows := compareSets([]*Result{run(100), run(1000), run(110)}, []*Result{run(99), run(10), run(120)})
	for _, r := range rows {
		if r.Def.Name == "values_per_s" && (r.A != 110 || r.B != 99) {
			t.Errorf("set medians = %v, %v; want 110, 99", r.A, r.B)
		}
	}
	if len(rows) != len(endToEnd) {
		t.Errorf("%d rows, want %d", len(rows), len(endToEnd))
	}
}

// TestMetricNamesFitTheContract checks names and units against the limits the
// benchmark's driver enforces on BENCHMARK.json.
func TestMetricNamesFitTheContract(t *testing.T) {
	seen := map[string]bool{}
	for _, def := range append(append([]MetricDef{}, endToEnd...), perLayer...) {
		if seen[def.Name] || len(def.Name) > 64 || len(def.Unit) > 16 || (def.Better != "lower" && def.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", def)
		}
		seen[def.Name] = true
	}
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// TestBenchmarkJSONMatchesCode keeps the committed contract file and the
// harness's own tables from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []MetricDef                  `json:"end_to_end"`
		PerLayer  []MetricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the harness:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the harness")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
}

// TestQuickSmoke runs the whole command once with 1 s windows: every
// workload, every gate, the result schema and the contract line.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for a second each")
	}
	pl := quickPlan(5)
	if raceEnabled {
		// The race detector makes the program several times slower, and the
		// open loop then misses its latency limit by design.
		pl.Workloads = []Workload{workloads[0], workloads[1], workloads[3]}
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range res.Workloads {
		if len(wr.Violations) > 0 || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted=%d failed=%d violations=%v", wr.Name, wr.Attempted, wr.Failed, wr.Violations)
		}
		for _, def := range endToEnd {
			if v := wr.Metrics[def.Name].Value; !(v > 0) {
				t.Errorf("%s %s = %v, want > 0", wr.Name, def.Name, v)
			}
		}
	}
	// One traced pass, on the workload whose gate needs FlushReports.
	traced, err := pl.pass(workloads[3], pl.Window, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Violations) > 0 || traced.Layers["consensus.diagnosis_runs_per_cycle"] != 4 || len(traced.Spans) < 7 {
		t.Errorf("traced %s: violations=%v diagnosis runs per cycle=%v, %d spans", traced.Workload, traced.Violations,
			traced.Layers["consensus.diagnosis_runs_per_cycle"], len(traced.Spans))
	}
	for name, want := range map[string]float64{"tcp7_small": 13169.625, "sim16_large": 10600160, "tcp7_pk_byz": 8720.5625} {
		if got := res.workload(name).Metrics["proto_bits_per_value"].Value; got != want {
			t.Errorf("%s proto_bits_per_value = %v, want %v", name, got, want)
		}
	}
	var line struct {
		Correct   bool
		Attempted int
		Metrics   map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil || !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Errorf("contract line %s: err=%v", contractLine(res), err)
	}
}
