// Quickstart: seven processors — two of them Byzantine equivocators — reach
// error-free consensus on a string value, and the run reports the exact
// number of bits that cost.
package main

import (
	"context"
	"fmt"
	"log"

	"byzcons"
)

func main() {
	const n, t = 7, 2
	// A batch of 128 state-machine commands (~7.4 KiB) — multi-valued
	// consensus pays off for long values (the paper's "large L" regime).
	var batch []byte
	for i := 0; i < 128; i++ {
		batch = append(batch, []byte(fmt.Sprintf("command #%03d: transfer %3d tokens from A to B\n", i, i%100))...)
	}
	value := batch
	L := len(value) * 8

	// Every processor starts with the same input (the interesting validity
	// case); processors 2 and 5 are Byzantine and equivocate their
	// matching-stage symbols toward processor 6.
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = value
	}
	res, err := byzcons.Consensus(
		byzcons.Config{N: n, T: t},
		inputs, L,
		byzcons.Scenario{
			Faulty:   []int{2, 5},
			Behavior: byzcons.Equivocator{Victims: []int{6}},
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("agreed on %d-byte batch; first command: %q\n", len(res.Value), res.Value[:47])
	fmt.Printf("consistent:    %v (error-free, despite the attack)\n", res.Consistent)
	fmt.Printf("generations:   %d\n", res.Generations)
	fmt.Printf("diagnosis ran: %d times (Theorem 1 bound: t(t+1) = %d)\n", res.DiagnosisRuns, t*(t+1))
	fmt.Printf("total cost:    %d bits over %d synchronous rounds\n", res.Bits, res.Rounds)
	fmt.Printf("for reference: naive bitwise consensus would cost %d bits\n",
		byzcons.PredictNaive(byzcons.NaiveConfig{N: n, T: t}, int64(L)))

	// The same workload through the streaming Session: propose the commands
	// individually and let the background flush policy coalesce them into
	// long consensus inputs — each flush cycle is one consensus run that
	// amortizes its broadcast overhead over every value it carries.
	ctx := context.Background()
	s, err := byzcons.Open(byzcons.SessionConfig{
		Config: byzcons.Config{N: n, T: t},
		Scenario: byzcons.Scenario{
			Faulty:   []int{2, 5},
			Behavior: byzcons.Equivocator{Victims: []int{6}},
		},
		BatchValues: 32,
		Instances:   4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	pendings := make([]*byzcons.Pending, 128)
	for i := range pendings {
		cmd := []byte(fmt.Sprintf("command #%03d: transfer %3d tokens from A to B\n", i, i%100))
		if pendings[i], err = s.ProposeAsync(ctx, cmd); err != nil {
			log.Fatal(err)
		}
	}
	if err := s.Drain(ctx); err != nil { // flush policy would also get there on its own
		log.Fatal(err)
	}
	first := pendings[0].Wait(ctx)
	st := s.Stats()
	fmt.Printf("\nstreaming session: %d commands decided in %d cycles over %d rounds\n",
		st.Decided, st.Cycles, st.Rounds)
	fmt.Printf("per-client decision #0: %q\n", first.Value)
	fmt.Printf("amortized cost: %.0f bits/command (batching shares each generation's broadcast overhead)\n",
		float64(st.Bits)/float64(st.Decided))
}
