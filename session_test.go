package byzcons_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"byzcons"
)

// transports lists every deployment backend a Session can run over.
func transports() []byzcons.TransportKind {
	return []byzcons.TransportKind{byzcons.TransportSim, byzcons.TransportBus, byzcons.TransportTCP}
}

// manualPolicy disables every auto-flush trigger.
func manualPolicy() byzcons.FlushPolicy {
	return byzcons.FlushPolicy{MaxValues: -1, MaxDelay: -1}
}

// TestSessionCloseFailsPendingsPromptly is the Close-semantics regression
// test: closing a session with undecided proposals must fail them promptly
// with ErrClosed — Wait callers unblock instead of hanging — and must leak no
// goroutines (clients, flusher, TCP readers all retire) — on the simulator
// and over TCP. Deliberately not parallel: the goroutine-count baseline must
// not see other tests' workers.
func TestSessionCloseFailsPendingsPromptly(t *testing.T) {
	for _, tk := range []byzcons.TransportKind{byzcons.TransportSim, byzcons.TransportTCP} {
		t.Run(tk.String(), func(t *testing.T) { closeFailsPendingsPromptly(t, tk) })
	}
}

func closeFailsPendingsPromptly(t *testing.T, tk byzcons.TransportKind) {
	before := runtime.NumGoroutine()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config:    byzcons.Config{N: 4, T: 1, Seed: 2},
		Transport: tk,
		Policy:    manualPolicy(), // nothing will ever flush these
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	decisions := make(chan byzcons.Decision, clients)
	var started sync.WaitGroup
	for i := 0; i < clients; i++ {
		p, err := s.ProposeAsync(context.Background(), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		started.Add(1)
		go func() {
			started.Done()
			decisions <- p.Wait(context.Background())
		}()
	}
	started.Wait()
	if n := s.PendingCount(); n != clients {
		t.Fatalf("PendingCount = %d, want %d", n, clients)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < clients; i++ {
		select {
		case d := <-decisions:
			if !errors.Is(d.Err, byzcons.ErrClosed) {
				t.Fatalf("decision %d after Close: %+v, want ErrClosed", i, d)
			}
		case <-deadline:
			t.Fatalf("Wait caller %d still blocked after Close", i)
		}
	}
	if _, err := s.Propose(context.Background(), []byte("late")); !errors.Is(err, byzcons.ErrClosed) {
		t.Errorf("Propose after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// TCP readers (12 at n=4), the flusher and the clients must all be gone;
	// allow a little scheduler slack, far below a real leak's footprint.
	var after int
	for wait := time.Duration(0); wait < 5*time.Second; wait += 10 * time.Millisecond {
		if after = runtime.NumGoroutine(); after <= before+3 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked across Close: %d before, %d after", before, after)
}

// TestSessionManualFlushDecides drives the fully manual policy: nothing runs
// until Drain, one Drain coalesces ten proposals into three batches over two
// cycles under an equivocating adversary, every proposal resolves to its own
// value, and the cycle reports and stats account for all of it.
func TestSessionManualFlushDecides(t *testing.T) {
	t.Parallel()
	reports := make(chan byzcons.FlushReport, 4)
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config:      byzcons.Config{N: 7, T: 2, Seed: 3},
		Scenario:    byzcons.Scenario{Faulty: []int{2, 5}, Behavior: byzcons.Equivocator{Victims: []int{6}}},
		BatchValues: 4,
		Instances:   2,
		Policy:      manualPolicy(),
		OnFlush:     func(rep byzcons.FlushReport) { reports <- rep },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var values [][]byte
	var pendings []*byzcons.Pending
	for i := 0; i < 10; i++ {
		v := []byte(fmt.Sprintf("command #%02d: credit account %d", i, i*i))
		p, err := s.ProposeAsync(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, v)
		pendings = append(pendings, p)
	}
	if n := s.PendingCount(); n != 10 {
		t.Fatalf("PendingCount = %d before any Drain, want 10", n)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	close(reports) // every cycle reported before Drain returned
	var cycles, valuesIn, batches int
	for rep := range reports {
		cycles++
		valuesIn += rep.Values
		batches += len(rep.Batches)
		for _, st := range rep.Batches {
			if st.Bits <= 0 || st.BitsPerValue <= 0 {
				t.Errorf("batch %d missing metrics: %+v", st.Batch, st)
			}
		}
	}
	if cycles != 2 || valuesIn != 10 || batches != 3 {
		t.Fatalf("%d cycle reports carried %d values in %d batches, want 2, 10 and 3", cycles, valuesIn, batches)
	}
	for i, p := range pendings {
		d := p.Wait(ctx)
		if d.Err != nil {
			t.Fatalf("value %d: %v", i, d.Err)
		}
		if !bytes.Equal(d.Value, values[i]) {
			t.Fatalf("per-client decision %d = %q, want %q", i, d.Value, values[i])
		}
	}
	if st := s.Stats(); st.Decided != 10 || st.Submitted != 10 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ProposeAsync(ctx, []byte{1}); err == nil {
		t.Error("ProposeAsync accepted after Close")
	}
}

// TestSessionAmortizedBitsPerValueDecreases is the acceptance-criteria
// assertion at the public API: for a fixed workload at fixed n and t, the
// amortized communication bits per proposed value strictly decrease as the
// batch size grows.
func TestSessionAmortizedBitsPerValueDecreases(t *testing.T) {
	t.Parallel()
	const workload = 32
	var prev float64
	for i, batch := range []int{1, 2, 4, 8, 16, 32} {
		s, err := byzcons.Open(byzcons.SessionConfig{
			Config:      byzcons.Config{N: 7, T: 2, SymBits: 8, Seed: 1},
			BatchValues: batch,
			Instances:   4,
			Policy:      manualPolicy(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for v := 0; v < workload; v++ {
			if _, err := s.ProposeAsync(context.Background(), bytes.Repeat([]byte{byte(v)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		perValue := float64(s.Stats().Bits) / workload
		t.Logf("batch=%2d  amortized %.0f bits/value", batch, perValue)
		if i > 0 && perValue >= prev {
			t.Errorf("batch=%d: %.0f bits/value does not beat %.0f at the previous size", batch, perValue, prev)
		}
		prev = perValue
	}
}

// TestSessionAutoFlushMaxValues: a full cycle's worth of proposals decides
// with no Drain anywhere — the background policy does the pumping.
func TestSessionAutoFlushMaxValues(t *testing.T) {
	t.Parallel()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config:      byzcons.Config{N: 4, T: 1, Seed: 3},
		BatchValues: 2,
		Instances:   2,
		Policy:      byzcons.FlushPolicy{MaxValues: 4, MaxDelay: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := make([][]byte, 4)
	pendings := make([]*byzcons.Pending, 4)
	for i := range pendings {
		want[i] = []byte{0xB0, byte(i)}
		if pendings[i], err = s.ProposeAsync(context.Background(), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, p := range pendings {
		d := p.Wait(ctx)
		if d.Err != nil || !bytes.Equal(d.Value, want[i]) {
			t.Fatalf("auto-flushed decision %d: %+v", i, d)
		}
	}
}

// TestSessionAutoFlushMaxDelay: one lonely proposal, far below every size
// threshold, still decides — bounded by the policy's delay trigger.
func TestSessionAutoFlushMaxDelay(t *testing.T) {
	t.Parallel()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config: byzcons.Config{N: 4, T: 1, Seed: 4},
		Policy: byzcons.FlushPolicy{MaxValues: 1 << 30, MaxDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d, err := s.Propose(ctx, []byte("trickle"))
	if err != nil || !bytes.Equal(d.Value, []byte("trickle")) {
		t.Fatalf("Propose under MaxDelay policy: %+v, %v", d, err)
	}
}

// TestSessionProposeContextCancel pins the acceptance criterion that
// Propose(ctx) and Pending.Wait(ctx) return promptly on cancellation: with
// auto-flushing disabled nothing will ever decide the value, so only the
// context can unblock the call — and the proposal itself must survive for a
// later flush.
func TestSessionProposeContextCancel(t *testing.T) {
	t.Parallel()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config: byzcons.Config{N: 4, T: 1, Seed: 5},
		Policy: manualPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	d, err := s.Propose(ctx, []byte("cancelled"))
	if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(d.Err, context.DeadlineExceeded) {
		t.Fatalf("Propose under dead ctx = %+v, %v", d, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancellation took %v, not prompt", waited)
	}
	// An already-cancelled context rejects at entry.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := s.ProposeAsync(dead, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProposeAsync under cancelled ctx: %v", err)
	}
	// The cancelled proposal is still queued; a manual flush decides it.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Decided != 1 {
		t.Errorf("cancelled proposal lost: %+v", st)
	}
}

// TestSessionConcurrentPropose hammers one session per transport from 64
// goroutines under the race detector: concurrent Propose, mid-flight context
// cancellation, and Drain racing Propose. Every non-cancelled call must get
// back exactly the value it proposed.
func TestSessionConcurrentPropose(t *testing.T) {
	t.Parallel()
	for _, tk := range transports() {
		tk := tk
		t.Run(tk.String(), func(t *testing.T) {
			t.Parallel()
			s, err := byzcons.Open(byzcons.SessionConfig{
				Config:      byzcons.Config{N: 4, T: 1, Seed: 6},
				Scenario:    byzcons.Scenario{Faulty: []int{3}, Behavior: byzcons.Equivocator{}},
				Transport:   tk,
				BatchValues: 8,
				Instances:   2,
				Policy:      byzcons.FlushPolicy{MaxValues: 16, MaxDelay: 2 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const goroutines, perG = 64, 2
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			errc := make(chan error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						val := []byte{0xC0, byte(g), byte(i)}
						if g%8 == 0 && i == 0 {
							// Mid-flight cancellation: a dead-on-arrival wait
							// must return promptly, and the proposal must
							// still decide for a later Wait.
							p, err := s.ProposeAsync(ctx, val)
							if err != nil {
								errc <- err
								return
							}
							tight, killTight := context.WithTimeout(ctx, time.Microsecond)
							d := p.Wait(tight)
							killTight()
							if d.Err != nil && !errors.Is(d.Err, context.DeadlineExceeded) {
								errc <- fmt.Errorf("tight Wait: %v", d.Err)
								return
							}
							if d = p.Wait(ctx); d.Err != nil || !bytes.Equal(d.Value, val) {
								errc <- fmt.Errorf("re-Wait after cancel: %+v", d)
								return
							}
							continue
						}
						d, err := s.Propose(ctx, val)
						if err != nil || !bytes.Equal(d.Value, val) {
							errc <- fmt.Errorf("goroutine %d value %d: %+v, %v", g, i, d, err)
							return
						}
					}
				}(g)
			}
			// Drain races Propose the whole time.
			stopDrain := make(chan struct{})
			drainDone := make(chan struct{})
			go func() {
				defer close(drainDone)
				for {
					if err := s.Drain(ctx); err != nil {
						errc <- fmt.Errorf("racing Drain: %w", err)
						return
					}
					select {
					case <-stopDrain:
						return
					case <-time.After(time.Millisecond):
					}
				}
			}()
			wg.Wait()
			close(stopDrain)
			<-drainDone
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Decided != goroutines*perG {
				t.Errorf("decided %d of %d proposals: %+v", st.Decided, goroutines*perG, st)
			}
		})
	}
}

// TestSessionTCPPersistentMesh is the acceptance-criteria test: one Session
// over TCP completes three policy-triggered flush cycles on a single mesh —
// no re-dial between cycles, asserted via the transport connection counters —
// with every decision bit-identical to the same workload on the simulator
// backend, and OnFlush receiving exactly one report per cycle in commit
// order.
func TestSessionTCPPersistentMesh(t *testing.T) {
	t.Parallel()
	const n, tf = 4, 1
	const waves, perWave = 3, 8

	runWaves := func(tk byzcons.TransportKind) (decisions []byzcons.Decision, s *byzcons.Session, collected func() []byzcons.FlushReport) {
		// OnFlush runs on the flusher goroutine; Close waits it out, so the
		// collected reports are final once the session closed.
		var mu sync.Mutex
		var reps []byzcons.FlushReport
		collected = func() []byzcons.FlushReport {
			mu.Lock()
			defer mu.Unlock()
			return reps
		}
		s, err := byzcons.Open(byzcons.SessionConfig{
			Config:      byzcons.Config{N: n, T: tf, Seed: 21},
			Scenario:    byzcons.Scenario{Faulty: []int{1}, Behavior: byzcons.Equivocator{}},
			Transport:   tk,
			BatchValues: 4,
			Instances:   2,
			// Exactly one cycle per wave: the 8th proposal trips the trigger.
			Policy: byzcons.FlushPolicy{MaxValues: perWave, MaxDelay: -1},
			OnFlush: func(rep byzcons.FlushReport) {
				mu.Lock()
				reps = append(reps, rep)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var connsAfterFirstCycle int64
		for w := 0; w < waves; w++ {
			pendings := make([]*byzcons.Pending, perWave)
			for i := range pendings {
				val := bytes.Repeat([]byte{byte(0x30 + w), byte(i)}, 12)
				if pendings[i], err = s.ProposeAsync(ctx, val); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range pendings {
				d := p.Wait(ctx)
				if d.Err != nil {
					t.Fatalf("%v wave %d: %v", tk, w, d.Err)
				}
				decisions = append(decisions, d)
			}
			if tk == byzcons.TransportTCP {
				if conns := s.WireStats().Conns; w == 0 {
					connsAfterFirstCycle = conns
				} else if conns != connsAfterFirstCycle {
					t.Fatalf("connection count moved between cycles: %d -> %d (mesh re-dialed)", connsAfterFirstCycle, conns)
				}
			}
		}
		return decisions, s, collected
	}

	tcpDecisions, tcpSession, tcpCollected := runWaves(byzcons.TransportTCP)
	simDecisions, simSession, _ := runWaves(byzcons.TransportSim)

	// ≥3 policy-triggered cycles over exactly one mesh dial.
	st := tcpSession.Stats()
	if st.Cycles < waves {
		t.Errorf("TCP session ran %d cycles, want >= %d", st.Cycles, waves)
	}
	if dials := tcpSession.MeshDials(); dials != 1 {
		t.Errorf("mesh dialed %d times across %d cycles, want exactly 1", dials, st.Cycles)
	}
	if conns := tcpSession.WireStats().Conns; conns != int64(n*(n-1)) {
		t.Errorf("connection counter = %d, want %d (one mesh, never rebuilt)", conns, n*(n-1))
	}

	// Decisions bit-identical to the simulator backend.
	if len(tcpDecisions) != len(simDecisions) {
		t.Fatalf("decision counts diverge: tcp %d, sim %d", len(tcpDecisions), len(simDecisions))
	}
	for i := range tcpDecisions {
		td, sd := tcpDecisions[i], simDecisions[i]
		if !bytes.Equal(td.Value, sd.Value) || td.Batch != sd.Batch || td.Defaulted != sd.Defaulted {
			t.Errorf("decision %d diverges across backends: tcp %+v, sim %+v", i, td, sd)
		}
	}

	// Per-cycle reports in commit order, one per cycle.
	if err := tcpSession.Close(); err != nil {
		t.Fatal(err)
	}
	simSession.Close()
	var cycles []int
	for _, rep := range tcpCollected() {
		cycles = append(cycles, rep.Cycle)
		if rep.Values != perWave {
			t.Errorf("cycle %d report carries %d values, want %d", rep.Cycle, rep.Values, perWave)
		}
	}
	if st = tcpSession.Stats(); len(cycles) != st.Cycles {
		t.Fatalf("OnFlush got %d reports of %d cycles", len(cycles), st.Cycles)
	}
	for i, c := range cycles {
		if c != i {
			t.Errorf("report order: got cycle %d at position %d", c, i)
		}
	}
}

// TestSessionOnFlushHook: the synchronous per-cycle hook fires once per
// cycle with that cycle's report.
func TestSessionOnFlushHook(t *testing.T) {
	t.Parallel()
	var mu sync.Mutex
	var hooked []int
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config:      byzcons.Config{N: 4, T: 1, Seed: 8},
		BatchValues: 2,
		Instances:   1,
		Policy:      manualPolicy(),
		OnFlush: func(rep byzcons.FlushReport) {
			mu.Lock()
			hooked = append(hooked, rep.Cycle)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.ProposeAsync(context.Background(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(hooked) != 2 || hooked[0] != 0 || hooked[1] != 1 {
		t.Errorf("OnFlush saw cycles %v, want [0 1]", hooked)
	}
}

// TestSessionTCPCoalescesOnOneCore pins the batch writer where it matters
// most: on one core a loopback write never yields, so frames coalesce only if
// the transport defers the write until the node's other instances have queued
// theirs. Four pipelined instances must share socket writes — at least two
// frames per write on average — and the decisions must stay bit-identical to
// the simulator's. Deliberately not parallel: GOMAXPROCS is process-wide.
func TestSessionTCPCoalescesOnOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cycles, perCycle = 3, 8 * 4

	run := func(tk byzcons.TransportKind) ([]byzcons.Decision, byzcons.WireStats) {
		s, err := byzcons.Open(byzcons.SessionConfig{
			Config:      byzcons.Config{N: 7, T: 2, Seed: 33},
			Transport:   tk,
			BatchValues: 8,
			Instances:   4,
			Policy:      byzcons.FlushPolicy{MaxValues: perCycle, MaxDelay: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var decisions []byzcons.Decision
		for c := 0; c < cycles; c++ {
			pendings := make([]*byzcons.Pending, perCycle)
			for i := range pendings {
				val := bytes.Repeat([]byte{byte(0x50 + c), byte(i)}, 32)
				if pendings[i], err = s.ProposeAsync(ctx, val); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range pendings {
				d := p.Wait(ctx)
				if d.Err != nil {
					t.Fatalf("%v cycle %d: %v", tk, c, d.Err)
				}
				decisions = append(decisions, d)
			}
		}
		if st := s.Stats(); st.Cycles < cycles {
			t.Errorf("%v session ran %d cycles, want >= %d", tk, st.Cycles, cycles)
		}
		return decisions, s.WireStats()
	}

	tcpDecisions, ws := run(byzcons.TransportTCP)
	simDecisions, _ := run(byzcons.TransportSim)
	for i := range tcpDecisions {
		td, sd := tcpDecisions[i], simDecisions[i]
		if !bytes.Equal(td.Value, sd.Value) || td.Batch != sd.Batch || td.Defaulted != sd.Defaulted {
			t.Errorf("decision %d diverges across backends: tcp %+v, sim %+v", i, td, sd)
		}
	}
	if ws.Writes == 0 || ws.FramesSent < 2*ws.Writes {
		t.Errorf("%d frames went out in %d socket writes (%.2f frames/write), want >= 2",
			ws.FramesSent, ws.Writes, float64(ws.FramesSent)/float64(max(ws.Writes, 1)))
	}
}

// TestPhaseKingResilienceRejectedUpFront: phase king needs n > 4t, a tighter
// bound than the consensus around it. n=7, t=2 used to open and then fail
// every proposal inside the first cycle; every entry point must refuse it
// before running anything, and n=7, t=1 must still open and decide.
func TestPhaseKingResilienceRejectedUpFront(t *testing.T) {
	t.Parallel()
	bad := byzcons.Config{N: 7, T: 2, Broadcast: byzcons.BroadcastPhaseKing}
	if _, err := byzcons.Open(byzcons.SessionConfig{Config: bad}); err == nil || !strings.Contains(err.Error(), "n > 4t") {
		t.Errorf("Open(n=7, t=2, phase king) = %v, want the n > 4t error", err)
	}
	if _, err := byzcons.OpenFleet(byzcons.FleetConfig{SessionConfig: byzcons.SessionConfig{Config: bad}, Shards: 2}); err == nil || !strings.Contains(err.Error(), "n > 4t") {
		t.Errorf("OpenFleet(n=7, t=2, phase king) = %v, want the n > 4t error", err)
	}
	inputs := make([][]byte, 7)
	for i := range inputs {
		inputs[i] = []byte{0xA5}
	}
	if _, err := byzcons.Consensus(bad, inputs, 8, byzcons.Scenario{}); err == nil || !strings.Contains(err.Error(), "n > 4t") {
		t.Errorf("Consensus(n=7, t=2, phase king) = %v, want the n > 4t error", err)
	}

	good := byzcons.Config{N: 7, T: 1, Broadcast: byzcons.BroadcastPhaseKing}
	s, err := byzcons.Open(byzcons.SessionConfig{Config: good})
	if err != nil {
		t.Fatalf("Open(n=7, t=1, phase king): %v", err)
	}
	defer s.Close()
	if d, err := s.Propose(context.Background(), []byte("phase king")); err != nil || d.Err != nil || string(d.Value) != "phase king" {
		t.Errorf("n=7, t=1 decision = %+v, %v", d, err)
	}
}

// TestSessionConfigValidation: the options-style surface rejects broken
// configurations up front, with errors instead of mid-run failures.
func TestSessionConfigValidation(t *testing.T) {
	t.Parallel()
	base := func() byzcons.SessionConfig {
		return byzcons.SessionConfig{Config: byzcons.Config{N: 7, T: 2}}
	}
	cases := []struct {
		name string
		mut  func(*byzcons.SessionConfig)
	}{
		{"zero n", func(c *byzcons.SessionConfig) { c.N = 0 }},
		{"resilience bound", func(c *byzcons.SessionConfig) { c.T = 3 }},
		{"bad symbits", func(c *byzcons.SessionConfig) { c.SymBits = 12 }},
		{"retired window", func(c *byzcons.SessionConfig) { c.Window = 2 }},
		{"faulty out of range", func(c *byzcons.SessionConfig) { c.Scenario.Faulty = []int{9} }},
		{"duplicate faulty", func(c *byzcons.SessionConfig) { c.Scenario.Faulty = []int{1, 1} }},
		{"too many faulty", func(c *byzcons.SessionConfig) { c.Scenario.Faulty = []int{0, 1, 2} }},
		{"negative batch", func(c *byzcons.SessionConfig) { c.BatchValues = -1 }},
		{"negative instances", func(c *byzcons.SessionConfig) { c.Instances = -2 }},
		{"unknown transport", func(c *byzcons.SessionConfig) { c.Transport = byzcons.TransportKind(99) }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := byzcons.Open(cfg); err == nil {
			t.Errorf("%s: Open accepted", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
