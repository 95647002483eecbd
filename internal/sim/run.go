package sim

import (
	"fmt"
	"sync"

	"byzcons/internal/metrics"
)

// RunConfig configures one simulated execution.
type RunConfig struct {
	N         int
	Faulty    []int     // processor ids controlled by the adversary
	Adversary Adversary // nil means Passive (no deviation)
	Seed      int64     // drives all randomness in the run deterministically
}

// RunResult is the outcome of one simulated execution.
type RunResult struct {
	// Values[i] is the value returned by processor i's body.
	Values []any
	Meter  *metrics.Meter
	Err    error
}

// Run executes body at each of n processors concurrently under the
// synchronous model and returns their results. Any protocol misalignment,
// invalid message, or panic in a body aborts the whole run and is reported
// in RunResult.Err.
func Run(cfg RunConfig, body func(p *Proc) any) *RunResult {
	return runInstance(cfg, -1, body)
}

// runInstance is the shared single-instance runner behind Run and RunBatch;
// instance tags the network's steps, errors and adversary contexts (-1 for a
// plain Run, which reports itself as instance 0 to protocol code but keeps
// its errors untagged).
func runInstance(cfg RunConfig, instance int, body func(p *Proc) any) *RunResult {
	meter := metrics.NewMeter()
	faulty := make([]bool, cfg.N)
	for _, f := range cfg.Faulty {
		if f < 0 || f >= cfg.N {
			return &RunResult{Meter: meter, Err: fmt.Errorf("sim: faulty id %d out of range [0,%d)", f, cfg.N)}
		}
		faulty[f] = true
	}
	net := NewNetwork(cfg.N, instance, faulty, cfg.Adversary, meter, LazyRand(cfg.Seed^0x5DEECE66D))

	values := make([]any, cfg.N)
	var wg sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		p := &Proc{
			ID:       i,
			N:        cfg.N,
			Instance: max(instance, 0),
			Faulty:   faulty[i],
			Rand:     LazyRand(ProcSeed(cfg.Seed, i)),
			rt:       net,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer net.procDone()
			defer func() {
				if r := recover(); r != nil {
					switch e := r.(type) {
					case abortError:
						net.fail(e.err)
					default:
						net.fail(net.errf("sim: processor %d panicked: %v", p.ID, r))
					}
				}
			}()
			values[p.ID] = body(p)
		}()
	}
	wg.Wait()

	net.mu.Lock()
	err := net.failed
	net.mu.Unlock()
	return &RunResult{Values: values, Meter: meter, Err: err}
}

// ProcSeed derives the deterministic per-processor randomness seed used for
// Proc.Rand. Exported so alternative backends (internal/node) reproduce the
// simulator's randomness bit for bit.
func ProcSeed(seed int64, id int) int64 {
	return seed + int64(id)*0x9E3779B9
}

// HonestValues returns the body results of honest processors only, in id
// order, along with their ids.
func (r *RunResult) HonestValues(faulty []int) (ids []int, vals []any) {
	isFaulty := make(map[int]bool, len(faulty))
	for _, f := range faulty {
		isFaulty[f] = true
	}
	for i, v := range r.Values {
		if !isFaulty[i] {
			ids = append(ids, i)
			vals = append(vals, v)
		}
	}
	return ids, vals
}
