// Streaming: a long-lived consensus Session fed by concurrent clients.
//
// Eight producer goroutines propose commands as they "arrive" (a trickle at
// first, then a burst), and nobody drains by hand until the end: the
// session's FlushPolicy coalesces queued proposals into long consensus
// inputs on its own — a cycle is due once a full cycle of batches is queued
// or once the oldest proposal has waited MaxDelay — so a lone command still decides interactively while a
// burst amortizes the per-generation broadcast overhead across whole
// batches (the paper's O(nL) large-L regime). Per-cycle reports print live
// from the OnFlush hook, and the run ends with the precise lifecycle: Drain
// (flush stragglers and wait), then Close.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"byzcons"
)

func main() {
	const n, t = 7, 2
	const producers, perProducer = 8, 24

	ctx := context.Background()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config: byzcons.Config{N: n, T: t, Seed: 1},
		Scenario: byzcons.Scenario{ // two Byzantine equivocators, as always
			Faulty:   []int{2, 5},
			Behavior: byzcons.Equivocator{Victims: []int{6}},
		},
		BatchValues: 16,
		Instances:   4,
		Policy: byzcons.FlushPolicy{
			MaxValues: 64,                   // a full cycle triggers immediately...
			MaxDelay:  2 * time.Millisecond, // ...a straggler waits at most 2ms
		},
		// Per-cycle observability: one report per flush cycle, as it
		// commits, on the flushing goroutine.
		OnFlush: func(rep byzcons.FlushReport) {
			fmt.Printf("cycle %d: %d values, %d bits (%.0f bits/value)\n",
				rep.Cycle, rep.Values, rep.Bits,
				float64(rep.Bits)/float64(max(rep.Values, 1)))
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A lone command first: nothing else is queued, so only the MaxDelay
	// trigger can flush it — this is the interactive path.
	start := time.Now()
	d, err := s.Propose(ctx, []byte("lone command: create account alice"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lone command decided in %v: %q\n\n", time.Since(start).Round(time.Millisecond), d.Value)

	// Then the burst: concurrent producers, decisions verified per client.
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				cmd := fmt.Sprintf("producer %d command %02d: transfer %d tokens", p, i, (p*perProducer+i)%97)
				d, err := s.Propose(ctx, []byte(cmd))
				if err != nil {
					log.Fatalf("producer %d: %v", p, err)
				}
				if string(d.Value) != cmd {
					log.Fatalf("producer %d: decided %q, want %q", p, d.Value, cmd)
				}
			}
		}(p)
	}
	wg.Wait()

	if err := s.Drain(ctx); err != nil { // flush stragglers and wait for them
		log.Fatal(err)
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d commands decided over %d cycles, %d rounds\n",
		st.Decided, st.Cycles, st.Rounds)
	fmt.Printf("amortized cost: %.0f bits/command\n", float64(st.Bits)/float64(st.Decided))
}
