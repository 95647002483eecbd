package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"byzcons/internal/adversary"
	"byzcons/internal/bsb"
	"byzcons/internal/consensus"
	"byzcons/internal/sim"
)

func testConfig() Config {
	return Config{
		Consensus: consensus.Params{N: 7, T: 2, SymBits: 8, BSB: bsb.Oracle},
		Seed:      1,
	}
}

// submitN queues count deterministic distinct values and returns them with
// their pendings.
func submitN(t *testing.T, e *Engine, count, size int) ([][]byte, []*Pending) {
	t.Helper()
	values := make([][]byte, count)
	pendings := make([]*Pending, count)
	for i := range values {
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(i*31 + j)
		}
		values[i] = v
		p, err := e.Submit(v)
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = p
	}
	return values, pendings
}

// collectReports installs an OnCycle hook on cfg that sends each cycle's
// report to the returned channel, buffered for size reports.
func collectReports(cfg *Config, size int) <-chan Report {
	reports := make(chan Report, size)
	cfg.OnCycle = func(rep Report) { reports <- rep }
	return reports
}

// drainReports drains e and returns the reports of the cycles that ran.
// OnCycle runs before Drain returns, so every report is already buffered.
func drainReports(t *testing.T, e *Engine, reports <-chan Report) []Report {
	t.Helper()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out []Report
	for {
		select {
		case rep := <-reports:
			out = append(out, rep)
		default:
			return out
		}
	}
}

func TestEngineBatchesAndDecides(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchValues = 4
	cfg.Instances = 2
	reports := collectReports(&cfg, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	values, pendings := submitN(t, e, 10, 16)
	if got := e.PendingCount(); got != 10 {
		t.Fatalf("PendingCount = %d", got)
	}
	reps := drainReports(t, e, reports)
	// 10 values at 4 × 2 per cycle -> cycles of 8 and 2, one row each.
	if len(reps) != 2 {
		t.Fatalf("got %d cycle reports, want 2: %+v", len(reps), reps)
	}
	wantSizes := []int{8, 2}
	for c, rep := range reps {
		if len(rep.Batches) != 1 {
			t.Fatalf("cycle %d has %d rows, want 1: %+v", c, len(rep.Batches), rep.Batches)
		}
		st := rep.Batches[0]
		if st.Values != wantSizes[c] || rep.Values != wantSizes[c] {
			t.Errorf("cycle %d carried %d values (report %d), want %d", c, st.Values, rep.Values, wantSizes[c])
		}
		if st.Batch != c || st.Cycle != c || rep.Cycle != c {
			t.Errorf("cycle %d: batch %d, row cycle %d, report cycle %d", c, st.Batch, st.Cycle, rep.Cycle)
		}
		if st.Bits <= 0 || st.Rounds <= 0 || st.PackedBits <= 0 {
			t.Errorf("cycle %d has empty accounting: %+v", c, st)
		}
		if st.Bits != rep.Bits || st.Rounds != rep.Rounds {
			t.Errorf("cycle %d: row accounting %d bits, %d rounds; report %d, %d", c, st.Bits, st.Rounds, rep.Bits, rep.Rounds)
		}
		if st.BitsPerValue != float64(st.Bits)/float64(st.Values) {
			t.Errorf("cycle %d BitsPerValue inconsistent", c)
		}
	}
	for i, p := range pendings {
		d := p.Wait(context.Background())
		if d.Err != nil {
			t.Fatalf("value %d: %v", i, d.Err)
		}
		if !bytes.Equal(d.Value, values[i]) {
			t.Fatalf("value %d decided %x, want %x", i, d.Value, values[i])
		}
		if d.Defaulted {
			t.Fatalf("value %d unexpectedly defaulted", i)
		}
		if want := i / 8; d.Batch != want {
			t.Errorf("value %d rode in batch %d, want %d", i, d.Batch, want)
		}
	}
	st := e.Stats()
	if st.Submitted != 10 || st.Decided != 10 || st.Cycles != 2 {
		t.Errorf("stats = %+v", st)
	}
	if rounds, bits := reps[0].Rounds+reps[1].Rounds, reps[0].Bits+reps[1].Bits; st.Rounds != rounds || st.Bits != bits {
		t.Errorf("stats/report accounting diverges: %+v vs %d rounds, %d bits", st, rounds, bits)
	}
	if e.PendingCount() != 0 {
		t.Error("queue not drained")
	}
}

// cycleRow drains count values of size bytes through a fresh engine on the
// simulator runner at the given Consensus.Lanes (0 = the Eq. 2 choice) and
// returns the one cycle's one row.
func cycleRow(t *testing.T, batchValues, instances, count, size, lanes int) BatchStats {
	t.Helper()
	cfg := testConfig()
	cfg.Consensus.Lanes = lanes
	cfg.BatchValues = batchValues
	cfg.Instances = instances
	reports := collectReports(&cfg, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submitN(t, e, count, size)
	reps := drainReports(t, e, reports)
	if len(reps) != 1 || len(reps[0].Batches) != 1 || reps[0].Err != nil {
		t.Fatalf("%d values at %d × %d: want one cycle with one row, got %+v", count, batchValues, instances, reps)
	}
	return reps[0].Batches[0]
}

// TestEngineCycleIsOneRun: a cycle of Instances full batches is one
// consensus run. It runs the rounds of one batch — its generations are
// Instances times as long, not Instances times as many — and pays the
// per-generation cost once instead of once per batch, so it costs fewer
// bits than Instances single-batch cycles. A partial cycle runs fewer
// rounds than a full one, and a cycle of at most one batch costs no more
// rounds or bits than the same values as a lone batch, also when Lanes is
// set and a batch's generation would be longer than the cycle's input.
func TestEngineCycleIsOneRun(t *testing.T) {
	t.Parallel()
	one := cycleRow(t, 16, 1, 16, 64, 0)
	full := cycleRow(t, 16, 4, 64, 64, 0)
	if full.Rounds != one.Rounds {
		t.Errorf("64-value cycle at Instances 4 ran %d rounds, want the %d of a 16-value cycle", full.Rounds, one.Rounds)
	}
	if full.Bits >= 4*one.Bits {
		t.Errorf("64-value cycle cost %d bits, want below 4 × %d of four 16-value cycles", full.Bits, one.Bits)
	}
	partial := cycleRow(t, 16, 4, 20, 64, 0)
	if partial.Rounds >= full.Rounds {
		t.Errorf("20-value cycle ran %d rounds, want fewer than the full cycle's %d", partial.Rounds, full.Rounds)
	}
	for _, c := range []struct{ lanes, count, size int }{{0, 10, 64}, {0, 1, 8}, {8, 10, 64}, {8, 1, 8}} {
		small := cycleRow(t, 16, 4, c.count, c.size, c.lanes)
		lone := cycleRow(t, 16, 1, c.count, c.size, c.lanes)
		if small.Rounds > lone.Rounds || small.Bits > lone.Bits {
			t.Errorf("%d × %d bytes at Lanes %d: Instances 4 ran %d rounds / %d bits, want at most the %d / %d of Instances 1",
				c.count, c.size, c.lanes, small.Rounds, small.Bits, lone.Rounds, lone.Bits)
		}
	}
}

func TestEngineBatchBytesCap(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchValues = 64
	// A cycle holds 2 × 40 = 80 bytes: four 16-byte values (+1 header byte
	// each, +1 count header) fit; five don't.
	cfg.BatchBytes = 40
	cfg.Instances = 2
	reports := collectReports(&cfg, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, pendings := submitN(t, e, 6, 16)
	reps := drainReports(t, e, reports)
	if len(reps) != 2 {
		t.Fatalf("byte cap ignored: %d cycles, want 2", len(reps))
	}
	for c, want := range []int{4, 2} {
		if rows := reps[c].Batches; len(rows) != 1 || rows[0].Values != want {
			t.Errorf("cycle %d rows = %+v, want one of %d values", c, rows, want)
		}
	}
	for _, p := range pendings {
		if d := p.Wait(context.Background()); d.Err != nil {
			t.Fatal(d.Err)
		}
	}
}

func TestEngineOversizedValueGetsOwnBatch(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchBytes = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, 64)
	p, err := e.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	d := p.Wait(context.Background())
	if d.Err != nil || !bytes.Equal(d.Value, big) {
		t.Fatalf("oversized value mishandled: %+v", d)
	}
}

func TestEngineDeterministicAcrossRuns(t *testing.T) {
	t.Parallel()
	run := func() Stats {
		cfg := testConfig()
		cfg.BatchValues = 3
		cfg.Instances = 2
		cfg.Faulty = []int{1, 4}
		cfg.Adversary = adversary.RandomByz{P: 0.5}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, pendings := submitN(t, e, 7, 12)
		if err := e.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, p := range pendings {
			if d := p.Wait(context.Background()); d.Err != nil {
				t.Fatal(d.Err)
			}
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different executions:\n%+v\n%+v", a, b)
	}
}

// TestEngineAdversaryGalleryAgreement is the acceptance-criteria test: under
// every bundled attack, every per-client decision must equal the submitted
// value (honest inputs are equal, so validity pins the decision), with the
// race detector enabled in CI.
func TestEngineAdversaryGalleryAgreement(t *testing.T) {
	t.Parallel()
	const n, tf = 7, 2
	gallery := []struct {
		name string
		adv  sim.Adversary
	}{
		{"passive", nil},
		{"equivocator", adversary.Equivocator{Victims: []int{6}}},
		{"matchliar", adversary.MatchLiar{}},
		{"falsedetector", adversary.FalseDetector{}},
		{"trustliar", adversary.Chain{adversary.Equivocator{Victims: []int{6}}, adversary.TrustLiar{}}},
		{"symbolliar", adversary.Chain{adversary.Equivocator{Victims: []int{6}}, adversary.SymbolLiar{}}},
		{"silent", adversary.Silent{}},
		{"random", adversary.RandomByz{P: 0.5}},
		{"edgemiser", adversary.EdgeMiser{T: tf}},
	}
	for _, tc := range gallery {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Consensus:   consensus.Params{N: n, T: tf, SymBits: 8, BSB: bsb.Oracle, Lanes: 2},
				Seed:        42,
				Faulty:      []int{0, 3},
				Adversary:   tc.adv,
				BatchValues: 3,
				Instances:   3,
			}
			reports := collectReports(&cfg, 2)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			values, pendings := submitN(t, e, 9, 20)
			reps := drainReports(t, e, reports)
			if len(reps) != 1 || reps[0].Values != 9 {
				t.Fatalf("cycle reports = %+v, want one of 9 values", reps)
			}
			for i, p := range pendings {
				d := p.Wait(context.Background())
				if d.Err != nil {
					t.Fatalf("value %d: %v", i, d.Err)
				}
				if d.Defaulted {
					t.Fatalf("value %d defaulted despite equal honest inputs", i)
				}
				if !bytes.Equal(d.Value, values[i]) {
					t.Fatalf("%s: per-client decision %d diverged", tc.name, i)
				}
			}
		})
	}
}

// TestEngineAmortizedBitsDecrease pins the tentpole claim at engine level: a
// fixed workload costs strictly fewer amortized bits per value as the batch
// size grows (fixed n, t), because the per-generation broadcast overhead is
// shared among more values. Values must be large enough that the optimal
// generation size D* (Eq. 2, ~sqrt(L)) is not quantized to a single lane,
// or the sqrt(L) overhead term degenerates to linear and the curve flattens.
func TestEngineAmortizedBitsDecrease(t *testing.T) {
	t.Parallel()
	const workload = 32
	var prev float64
	for i, batch := range []int{1, 2, 4, 8, 16, 32} {
		cfg := testConfig()
		cfg.BatchValues = batch
		cfg.Instances = 1 // the batch is the run
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, pendings := submitN(t, e, workload, 64)
		if err := e.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, p := range pendings {
			if d := p.Wait(context.Background()); d.Err != nil {
				t.Fatal(d.Err)
			}
		}
		perValue := float64(e.Stats().Bits) / workload
		if i > 0 && perValue >= prev {
			t.Errorf("batch=%d amortized %.1f bits/value, not below %.1f at previous size", batch, perValue, prev)
		}
		prev = perValue
	}
}

// TestEngineCloseFailsQueuedPendings pins the Close contract: submissions
// still queued when Close is called fail promptly with ErrClosed — a Wait
// caller never hangs on a closed engine — and further submissions are
// rejected with the same sentinel. Callers that want queued work decided
// flush (or Drain) first.
func TestEngineCloseFailsQueuedPendings(t *testing.T) {
	t.Parallel()
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, pendings := submitN(t, e, 3, 8)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		// The decisions are already resolved: an expired context must not
		// matter, since Wait prefers an available decision.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d := p.Wait(ctx)
		if !errors.Is(d.Err, ErrClosed) {
			t.Fatalf("pending %d after Close: %+v, want ErrClosed", i, d)
		}
	}
	if _, err := e.Submit([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Drain after Close: %v, want ErrClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if st := e.Stats(); st.Failed != 3 {
		t.Errorf("Failed = %d, want 3", st.Failed)
	}
}

// TestEnginePolicyMaxValues: reaching MaxValues flushes every value that
// tripped it with no Drain and no MaxDelay backstop, over as many cycles as
// that takes; a MaxValues above one cycle's capacity acts as that capacity,
// so a full cycle leaves without waiting for MaxValues values, also when
// BatchBytes fills the cycle's batches before BatchValues does.
func TestEnginePolicyMaxValues(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name       string
		instances  int // 0 = the engine default
		batchBytes int // 0 = the engine default
		maxValues  int
		submitted  int
		cycles     []int // values per expected background cycle
		stranded   int   // values left queued after them, sent only by Drain
	}{
		{"one cycle", 0, 0, 4, 4, []int{4}, 0},
		{"above one cycle", 1, 0, 8, 8, []int{4, 4}, 0},
		{"full cycle below MaxValues", 1, 0, 8, 4, []int{4}, 0},
		// 2 × 14 = 28 bytes hold three 8-byte values (1-byte count header,
		// 9 bytes each) and leave no room for another, not even an empty
		// one, so a cycle carries 3 values, not BatchValues × Instances = 8.
		{"BatchBytes splits the cycles", 2, 14, 8, 12, []int{3, 3, 3, 3}, 0},
		// 2 × 19 = 38 bytes hold four 8-byte values (37 bytes) and still
		// room for an empty one, so a 4-value head is not closed: once the
		// queue is below MaxValues, the last 4 wait for the next trigger,
		// here Drain.
		{"BatchBytes leaves a head short of closed", 2, 19, 8, 12, []int{4, 4}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			cfg.BatchValues = 4
			cfg.Instances = tc.instances
			cfg.BatchBytes = tc.batchBytes
			cfg.Policy = Policy{MaxValues: tc.maxValues}
			// OnCycle runs after the cycle's pendings resolved, so the
			// reports are awaited on the hook itself, not inferred from the
			// Waits.
			reports := make(chan Report, len(tc.cycles)+1)
			cfg.OnCycle = func(rep Report) { reports <- rep }
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			values, pendings := submitN(t, e, tc.submitted, 8)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			next := func(c, want int) {
				select {
				case rep := <-reports:
					if rep.Values != want || rep.Cycle != c {
						t.Errorf("per-cycle report %d = %+v, want %d values", c, rep, want)
					}
				case <-ctx.Done():
					t.Fatalf("no report for cycle %d", c)
				}
			}
			for c, want := range tc.cycles {
				next(c, want)
			}
			if tc.stranded > 0 {
				time.Sleep(50 * time.Millisecond)
				if got := e.PendingCount(); got != tc.stranded {
					t.Fatalf("%d values queued after the background cycles, want %d", got, tc.stranded)
				}
				if err := e.Drain(ctx); err != nil {
					t.Fatal(err)
				}
				next(len(tc.cycles), tc.stranded)
			}
			for i, p := range pendings {
				if d := p.Wait(ctx); d.Err != nil || !bytes.Equal(d.Value, values[i]) {
					t.Fatalf("auto-flushed value %d: %+v", i, d)
				}
			}
		})
	}
}

// gateRunner holds its first cycle until release is closed, so a test can
// queue values while a cycle is in flight.
type gateRunner struct {
	entered, release chan struct{}
	first            *sync.Once
}

func (g gateRunner) Run(cfg sim.RunConfig, body func(*sim.Proc) any) *sim.RunResult {
	g.first.Do(func() {
		close(g.entered)
		<-g.release
	})
	return simRunner{}.Run(cfg, body)
}

// TestEnginePolicyRefillWaitsForTrigger: values queued while a cycle runs
// do not leave as a partial cycle when it ends, nor on the stale wake-up a
// threshold already served left behind; they wait for their own trigger, so
// a client refilling the queue as decisions arrive gets full cycles however
// its submissions interleave with the flusher.
func TestEnginePolicyRefillWaitsForTrigger(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		during []int // Submit runs while cycle 0 holds
		served []int // values of the cycles that follow cycle 0 at once
	}{
		{"refill below the threshold", []int{2}, nil},
		{"threshold met again, then a remainder", []int{4, 2}, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			cfg.BatchValues = 4
			cfg.Instances = 1
			cfg.Policy = Policy{MaxValues: 4}
			gate := gateRunner{entered: make(chan struct{}), release: make(chan struct{}), first: new(sync.Once)}
			cfg.Runner = gate
			reports := make(chan Report, 8)
			cfg.OnCycle = func(rep Report) { reports <- rep }
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			next := func() Report {
				select {
				case rep := <-reports:
					return rep
				case <-time.After(30 * time.Second):
					t.Fatal("no cycle within 30s")
					return Report{}
				}
			}
			submitN(t, e, 4, 8) // trips MaxValues: cycle 0 starts and holds
			<-gate.entered
			for _, k := range tc.during {
				submitN(t, e, k, 8)
			}
			close(gate.release)
			if rep := next(); rep.Values != 4 {
				t.Fatalf("cycle 0 carried %d values, want 4", rep.Values)
			}
			for i, want := range tc.served {
				if rep := next(); rep.Values != want {
					t.Fatalf("cycle %d carried %d values, want %d", i+1, rep.Values, want)
				}
			}
			// A partial cycle, if the flusher ran one, lands well within this.
			time.Sleep(50 * time.Millisecond)
			if got := e.PendingCount(); got != 2 {
				t.Fatalf("%d values queued below the threshold, want 2: the remainder left as a partial cycle", got)
			}
			submitN(t, e, 2, 8) // the queue reaches the threshold again
			if rep := next(); rep.Values != 4 {
				t.Errorf("next cycle carried %d values, want 4", rep.Values)
			}
		})
	}
}

// TestEnginePolicyMaxDelay: a single value below every size threshold must
// still flush within (roughly) MaxDelay.
func TestEnginePolicyMaxDelay(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Policy = Policy{MaxValues: 1 << 30, MaxDelay: 10 * time.Millisecond}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p, err := e.Submit([]byte("lonely"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d := p.Wait(ctx); d.Err != nil || !bytes.Equal(d.Value, []byte("lonely")) {
		t.Fatalf("delay-flushed value: %+v", d)
	}
}

// TestEngineWaitHonorsContext: Wait must return promptly with ctx.Err()
// while the submission stays pending (no auto-flush, nothing will decide
// it), and still deliver the real decision to a later Wait.
func TestEngineWaitHonorsContext(t *testing.T) {
	t.Parallel()
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Submit([]byte("parked"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if d := p.Wait(ctx); !errors.Is(d.Err, context.DeadlineExceeded) {
		t.Fatalf("Wait under expired ctx = %+v", d)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := p.Wait(context.Background()); d.Err != nil || !bytes.Equal(d.Value, []byte("parked")) {
		t.Fatalf("decision lost after cancelled Wait: %+v", d)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDrainWaitsForEverything: after Drain returns nil, every prior
// submission has resolved.
func TestEngineDrainWaitsForEverything(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchValues = 2
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, pendings := submitN(t, e, 5, 8)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		select {
		case <-p.Done():
		default:
			t.Fatalf("pending %d unresolved after Drain", i)
		}
	}
}

func TestEngineConfigValidation(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero n", func(c *Config) { c.Consensus.N = 0 }},
		{"too many faulty", func(c *Config) { c.Faulty = []int{0, 1, 2} }},
		{"negative batch", func(c *Config) { c.BatchValues = -1 }},
		{"negative bytes", func(c *Config) { c.BatchBytes = -1 }},
		{"negative instances", func(c *Config) { c.Instances = -1 }},
	} {
		cfg := testConfig()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestEngineEmptyFlush: draining an empty queue runs no cycle.
func TestEngineEmptyFlush(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	reports := collectReports(&cfg, 1)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reps := drainReports(t, e, reports); len(reps) != 0 {
		t.Errorf("empty drain produced work: %+v", reps)
	}
	if st := e.Stats(); st.Cycles != 0 {
		t.Errorf("empty drain counted %d cycles", st.Cycles)
	}
}

func TestEngineRunErrorSurfacesInDecisions(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	// An out-of-range faulty id passes New's count check but fails in the
	// simulator, exercising the error path end to end.
	cfg.Faulty = []int{99}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Submit([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err == nil {
		t.Fatal("drain swallowed the run error")
	}
	if d := p.Wait(context.Background()); d.Err == nil {
		t.Fatal("decision swallowed the run error")
	}
}

func TestEngineZeroByteValue(t *testing.T) {
	t.Parallel()
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Submit(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	d := p.Wait(context.Background())
	if d.Err != nil || len(d.Value) != 0 || d.Defaulted {
		t.Fatalf("zero-byte value mishandled: %+v", d)
	}
}

func ExampleEngine() {
	e, _ := New(Config{
		Consensus:   consensus.Params{N: 7, T: 2, SymBits: 8, BSB: bsb.Oracle},
		BatchValues: 8,
		Instances:   2,
	})
	var pendings []*Pending
	for i := 0; i < 4; i++ {
		p, _ := e.Submit([]byte(fmt.Sprintf("command %d", i)))
		pendings = append(pendings, p)
	}
	e.Drain(context.Background())
	d := pendings[2].Wait(context.Background())
	fmt.Printf("%s batch=%d\n", d.Value, d.Batch)
	// Output: command 2 batch=0
}

// downRunner wraps the simulator runner and stamps every cycle's membership
// report, standing in for a networked backend with broken peer channels.
type downRunner struct{ peers []int }

func (d downRunner) Run(cfg sim.RunConfig, body func(*sim.Proc) any) *sim.RunResult {
	res := simRunner{}.Run(cfg, body)
	res.PeersDown = append([]int(nil), d.peers...)
	return res
}

// TestEngineReportsPeersDown pins the membership-report plumbing: a backend
// reporting peers down per cycle surfaces them on that cycle's report.
func TestEngineReportsPeersDown(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.BatchValues = 2
	cfg.Instances = 1
	cfg.Runner = downRunner{peers: []int{2, 5}}
	reports := collectReports(&cfg, 4)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitN(t, e, 4, 8) // two cycles, each reporting {2, 5}
	reps := drainReports(t, e, reports)
	if len(reps) != 2 {
		t.Fatalf("got %d cycle reports, want 2", len(reps))
	}
	for _, rep := range reps {
		if want := []int{2, 5}; len(rep.Batches) != 1 || !slices.Equal(rep.PeersDown, want) {
			t.Errorf("cycle %d: %d rows, PeersDown = %v, want 1 row and %v", rep.Cycle, len(rep.Batches), rep.PeersDown, want)
		}
	}
}
