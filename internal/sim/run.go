package sim

import (
	"fmt"
	"sync"

	"byzcons/internal/metrics"
)

// RunConfig configures one execution.
type RunConfig struct {
	N         int
	Faulty    []int     // processor ids controlled by the adversary
	Adversary Adversary // nil means Passive (no deviation)
	Seed      int64     // drives all randomness in the run deterministically
	// DegradePeers, when > 0, enables graceful degradation in backends with
	// real channels (internal/node) and is its fault budget: a round missing
	// frames only from peers whose channels are known down completes with
	// synthesized ⊥ frames, and a node whose own run fails on a
	// peer-attributed fault yields a missing value instead of failing the
	// whole run — as long as, at each node, the degraded peers and the
	// Faulty processors together number at most DegradePeers, and across
	// nodes some DegradePeers processors — among them the Faulty ones and
	// every node whose own run failed — touch every degraded channel. The
	// simulator's shared-memory barrier has no channels to lose, so it
	// ignores the field.
	DegradePeers int
}

// RunResult is the outcome of one execution.
type RunResult struct {
	// Values[i] is the value returned by processor i's body.
	Values []any
	// Meter holds the run's traffic and round accounting.
	Meter *metrics.Meter
	// PeersDown lists (sorted, deduplicated) the processors charged with the
	// channels observed down during the run: the smallest fault covers'
	// members within DegradePeers (a partitioned node alone, both ends of a
	// cut link), else every observed-down peer. The simulator, with no
	// channels to lose, leaves it empty.
	PeersDown []int
	// DegradedPeers lists (sorted, deduplicated) the peers whose missing
	// frames some round completed against with synthesized ⊥ values under
	// RunConfig.DegradePeers. Filled by the networked cluster backend; empty
	// under the simulator.
	DegradedPeers []int
	Err           error
}

// Run executes body at each of n processors concurrently under the
// synchronous model and returns their results. Any protocol misalignment,
// invalid message, or panic in a body aborts the whole run and is reported
// in RunResult.Err.
func Run(cfg RunConfig, body func(p *Proc) any) *RunResult {
	meter := metrics.NewMeter()
	faulty := make([]bool, cfg.N)
	for _, f := range cfg.Faulty {
		if f < 0 || f >= cfg.N {
			return &RunResult{Meter: meter, Err: fmt.Errorf("sim: faulty id %d out of range [0,%d)", f, cfg.N)}
		}
		faulty[f] = true
	}
	net := NewNetwork(cfg.N, faulty, cfg.Adversary, meter, LazyRand(cfg.Seed^0x5DEECE66D))

	values := make([]any, cfg.N)
	var wg sync.WaitGroup
	for i := 0; i < cfg.N; i++ {
		p := &Proc{
			ID:     i,
			N:      cfg.N,
			Faulty: faulty[i],
			Rand:   LazyRand(ProcSeed(cfg.Seed, i)),
			rt:     net,
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
						net.fail(fmt.Errorf("sim: processor %d panicked: %v", p.ID, r))
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

// LockAdversary wraps an adversary so that concurrent Rework calls are
// serialized, keeping stateful adversary implementations race-clean without
// requiring their own locking. The networked cluster (internal/node) applies
// it to the adversary its nodes share: each faulty node calls it from its
// own goroutine.
func LockAdversary(adv Adversary) Adversary {
	return &lockedAdversary{adv: adv}
}

// lockedAdversary is the wrapper behind LockAdversary.
type lockedAdversary struct {
	mu  sync.Mutex
	adv Adversary
}

func (l *lockedAdversary) ReworkExchange(ctx *ExchangeCtx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.adv.ReworkExchange(ctx)
}

func (l *lockedAdversary) ReworkSync(ctx *SyncCtx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.adv.ReworkSync(ctx)
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
