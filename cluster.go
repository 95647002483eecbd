package byzcons

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"byzcons/internal/consensus"
	"byzcons/internal/node"
	"byzcons/internal/obs"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
	"byzcons/internal/wire"
)

// TransportKind selects the deployment backend a run executes over.
type TransportKind int

// Available backends.
const (
	// TransportSim is the single-host simulator: payloads move by reference
	// through a shared-memory barrier and the adversary has the paper's
	// global rushing view. The default, and the reference for parity tests.
	TransportSim TransportKind = iota
	// TransportBus runs one networked node per processor over an in-process
	// channel bus: every payload crosses the full wire codec, but no
	// sockets are involved — the fast path for tests and benchmarks.
	TransportBus
	// TransportTCP runs one networked node per processor over a loopback
	// TCP mesh with length-prefixed frames — real I/O end to end.
	TransportTCP
)

// String returns the kind's name.
func (k TransportKind) String() string {
	switch k {
	case TransportSim:
		return "sim"
	case TransportBus:
		return "bus"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

// ParseTransportKind converts "sim", "bus" or "tcp" to a kind.
func ParseTransportKind(s string) (TransportKind, error) {
	switch s {
	case "sim", "":
		return TransportSim, nil
	case "bus":
		return TransportBus, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return 0, fmt.Errorf("byzcons: unknown transport %q (want sim, bus or tcp)", s)
	}
}

// factory returns the transport factory behind a networked kind, or nil for
// the simulator.
func (k TransportKind) factory() (transport.Factory, error) {
	return k.factoryFor(nil)
}

// factoryFor returns the kind's factory. A non-nil registry turns on the
// transport's sampled write-latency timing (TCP-only: the bus has no socket
// writes to time).
func (k TransportKind) factoryFor(reg *obs.Registry) (transport.Factory, error) {
	switch k {
	case TransportSim:
		return nil, nil
	case TransportBus:
		return transport.BusFactory{}, nil
	case TransportTCP:
		return transport.TCPFactory{Options: transport.TCPOptions{Obs: reg}}, nil
	default:
		return nil, fmt.Errorf("byzcons: unknown transport kind %d", int(k))
	}
}

// WireStats is the encoded on-wire traffic accounting of a networked run:
// the measured bytes that actually crossed the transport, standing next to
// the protocol-level bit meter (Result.Bits).
type WireStats = transport.Stats

// ClusterResult is the outcome of a networked consensus run.
type ClusterResult struct {
	*Result
	// Transport names the backend the run executed over.
	Transport string
	// Wire is the measured on-wire traffic. Zero for TransportSim, whose
	// payloads never leave the process.
	Wire WireStats
}

// ClusterConsensus runs the paper's Algorithm 1 with one networked node per
// processor over the selected transport: every protocol payload is encoded
// by the wire codec, framed, and carried by real point-to-point channels,
// with a round synchronizer replacing the simulator's global barrier. After
// deciding, the nodes cross-check their decisions over the wire (an
// all-to-all digest exchange): every honest node verifies that at least
// n-t nodes — necessarily including all honest ones — report its own
// decision, failing the run otherwise.
//
// TransportSim executes the same body (including the cross-check round) on
// the simulator, so results are directly comparable across backends: for
// every deterministic adversary in the gallery the decision, generation
// count, diagnosis graph and metered traffic are identical.
func ClusterConsensus(cfg Config, inputs [][]byte, L int, sc Scenario, kind TransportKind) (*ClusterResult, error) {
	if err := cfg.validateInputs(inputs, L); err != nil {
		return nil, err
	}
	par := cfg.consensusParams()
	if cfg.Trace != nil {
		par.Observer = traceObserver(cfg, sc)
	}
	body := func(p *sim.Proc) any {
		out := consensus.Run(p, par, inputs[p.ID], L)
		verifyDecision(p, cfg.N, cfg.T, out)
		return out
	}
	runCfg := sim.RunConfig{N: cfg.N, Faulty: sc.Faulty, Adversary: sc.Behavior, Seed: cfg.Seed}

	factory, err := kind.factory()
	if err != nil {
		return nil, err
	}
	var run *sim.RunResult
	var wireStats WireStats
	if factory == nil {
		run = sim.Run(runCfg, body)
	} else {
		c, err := dialCluster(factory, cfg.N, 1, nil, nil)
		if err != nil {
			return nil, err
		}
		run = c.Run(runCfg, body)
		wireStats = c.WireStats()
		// A one-shot run owns its cluster: tear the persistent mesh down so
		// sockets and reader goroutines do not outlive the result.
		c.Close()
	}
	if run.Err != nil {
		return nil, run.Err
	}
	res, err := buildResult(cfg, sc, run, consensusSummary(cfg.N))
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Result: res, Transport: kind.String(), Wire: wireStats}, nil
}

// dialCluster builds the networked cluster behind a deployment, or behind a
// one-shot ClusterConsensus run, and dials its mesh for n nodes.
func dialCluster(factory transport.Factory, n, shards int, reg *obs.Registry, tracer *obs.Tracer) (*node.Cluster, error) {
	c := node.NewCluster(factory)
	c.Shards = shards
	c.Obs = reg
	c.Tracer = tracer
	if err := c.Connect(n); err != nil {
		return nil, err
	}
	return c, nil
}

// verifyDecision is the post-decision cross-check round: each node
// contributes a digest of its full decision — the decided value, the
// defaulted flag and the diagnosis graph, in wire encoding, folded to 8
// bytes so the round costs O(n²) constant-size frames rather than O(n²·L)
// — and every honest node requires at least n-t identical echoes of its
// own. The error-free guarantee makes all honest digests equal, so the
// check can only fail if that guarantee broke (or the deployment
// diverged), turning silent disagreement into a loud run failure. The
// digest is operational scaffolding, not protocol state: a hash collision
// can only mask a failure of a guarantee that is proven never to fail.
// Faulty nodes skip the assertion: their local view is unspecified.
func verifyDecision(p *sim.Proc, n, t int, out *consensus.Output) {
	enc, err := wire.AppendPayload(nil, out.Value)
	if err == nil {
		enc, err = wire.AppendPayload(enc, []bool{out.Defaulted})
	}
	if err == nil {
		enc, err = wire.AppendPayload(enc, out.Graph)
	}
	if err != nil {
		p.Abort(fmt.Errorf("byzcons: encoding decision digest: %w", err))
	}
	h := fnv.New64a()
	h.Write(enc)
	digest := h.Sum(nil)
	vals := p.Sync("verify/out", digest, 0, "verify", nil)
	if p.Faulty {
		return
	}
	matches := 0
	for _, v := range vals {
		if b, ok := v.([]byte); ok && bytes.Equal(b, digest) {
			matches++
		}
	}
	if matches < n-t {
		p.Abort(fmt.Errorf("byzcons: node %d: only %d/%d nodes echo this decision (need %d): error-free guarantee broken or deployment diverged",
			p.ID, matches, n, n-t))
	}
}
