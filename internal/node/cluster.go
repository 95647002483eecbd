package node

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"byzcons/internal/metrics"
	"byzcons/internal/obs"
	"byzcons/internal/sim"
	"byzcons/internal/transport"
	"byzcons/internal/wire"
)

// Cluster runs protocol deployments over a transport. It is the networked
// counterpart of sim.Run with the same signature and result type, so the
// consensus engine selects its backend by picking a runner, and everything
// downstream (batching, metrics, decision demux) is untouched.
//
// The transport mesh is persistent: it is dialed once — eagerly via Connect,
// or lazily by the first run — and reused by every subsequent run until
// Close. Runs are demultiplexed by a monotone epoch id carried in every
// frame header (wire.Frame.Instance): each run claims the next id, per-node
// routers attach the run's runtimes for exactly that id, and a frame whose
// id predates it is a stale leftover of an earlier (possibly aborted) run
// and is dropped by tag instead of being fenced off by a mesh teardown.
//
// Sharding generalizes the epoch tag to (shard, epoch): a cluster configured
// with Shards > 1 partitions its id space into per-shard lanes
// (wire.ComposeInstance packs the shard into the id's low bits), each shard
// has its own run serialization, epoch pointer, epoch high-water mark and
// observed-down set, and ShardRunner(k) is shard k's runner handle. Runs
// serialize per shard — one epoch per shard owns that shard's id lane at a
// time — while different shards' epochs run concurrently over the one mesh.
// The unsharded cluster is the Shards=1 special case: zero shard bits, so
// its frames are byte-identical to the pre-shard wire format.
type Cluster struct {
	factory transport.Factory
	// Shards is the number of independent shard lanes the cluster routes
	// (0 = 1). Set before Connect or the first run; the mesh resolves it
	// once, like n.
	Shards int
	// StallTimeout bounds how long a round may stay parked before the stall
	// detector isolates every peer whose frame it still lacks
	// (0 = DefaultStallTimeout). A stall is attributed to the silent peer and
	// scoped to the cycle that observed it: the peer rejoins at the next
	// epoch if its channel is healthy.
	StallTimeout time.Duration
	// Obs, if non-nil, is the registry the cluster's runtimes record into:
	// round-sync wait histograms and inbox depth, tallied once per run (the
	// countRounds runtime). Set before the first run.
	Obs *obs.Registry
	// Tracer, if non-nil and enabled, receives peer lifecycle trace events
	// (down, up, stall) from the per-node routers. Set before Connect.
	Tracer *obs.Tracer

	mu        sync.Mutex
	eps       []transport.Endpoint
	routers   []*nodeRouter
	dead      []bool // nodes hard-killed by Kill, not yet Restarted
	n         int
	shards    int        // resolved shard count (>= 1 once the mesh is up)
	shardBits uint       // wire.ShardBits(shards)
	runs      []shardRun // per-shard run serialization and id high-water
	meshDials int
	retired   transport.Stats // accounting of the mesh after Close
	closed    bool
}

// shardRun is one shard's run state: runs within a shard serialize on mu
// (one epoch per shard owns the shard's id lane at a time), and nextEpoch is
// the shard-local id the next run claims.
type shardRun struct {
	mu        sync.Mutex
	nextEpoch int
}

// NewCluster returns a Cluster building its mesh from the given factory.
func NewCluster(f transport.Factory) *Cluster {
	return &Cluster{factory: f}
}

// Kind names the cluster's transport.
func (c *Cluster) Kind() string { return c.factory.Kind() }

// Connect dials the n-endpoint mesh eagerly so transport failures surface at
// open time rather than at the first run. It is idempotent; a mesh already
// dialed for a different n is an error.
func (c *Cluster) Connect(n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.connectLocked(n)
}

// connectLocked dials the mesh if the cluster does not hold one yet and
// wires the persistent per-node routers. Caller holds c.mu.
func (c *Cluster) connectLocked(n int) error {
	if c.closed {
		return errors.New("node: cluster closed")
	}
	if c.eps != nil {
		if c.n != n {
			return fmt.Errorf("node: cluster mesh is dialed for n=%d, got a run with n=%d", c.n, n)
		}
		return nil
	}
	if n < 1 {
		return fmt.Errorf("node: mesh needs n >= 1, got %d", n)
	}
	shards := c.Shards
	if shards == 0 {
		shards = 1
	}
	if shards < 1 || shards > wire.MaxShards {
		return fmt.Errorf("node: shard count %d out of range [1,%d]", shards, wire.MaxShards)
	}
	eps, err := c.factory.Mesh(n)
	if err != nil {
		return fmt.Errorf("node: building %s mesh: %w", c.factory.Kind(), err)
	}
	c.shards, c.shardBits = shards, wire.ShardBits(shards)
	c.runs = make([]shardRun, shards)
	routers := make([]*nodeRouter, n)
	for i := range routers {
		routers[i] = newNodeRouter(i, n, shards, c.shardBits)
		routers[i].tracer = c.Tracer
		// Receive routing: the transport delivers frames synchronously in
		// its own delivery context (the sender's goroutine on the bus, the
		// connection readers on TCP) — no dispatcher goroutine, no queue
		// hop, no extra wakeup per frame.
		eps[i].SetSink(routers[i])
	}
	c.eps, c.routers, c.n = eps, routers, n
	c.dead = make([]bool, n)
	c.meshDials++
	return nil
}

// nodeIsolator is the transport capability Kill/Restart need: cutting one
// node off from every peer and restoring it. transport.FaultyFactory
// implements it; a cluster over a bare factory cannot crash nodes.
type nodeIsolator interface {
	IsolateNode(i int)
	HealNode(i int)
}

// Kill hard-crashes one node: its endpoint is isolated from every peer (sends
// fail, deliveries blackhole, peers observe a transient channel loss) and its
// in-memory protocol state is dropped — the runtimes of the cycle in flight,
// if any, fail with a peer-attributed fault, and no body runs at the node in
// later cycles until Restart. The mesh itself stays up: the paper's model
// has no notion of a vanished processor, only one whose channels fell silent,
// and that is exactly what the surviving nodes observe.
func (c *Cluster) Kill(node int) error {
	c.mu.Lock()
	iso, router, err := c.crashTargetLocked("Kill", node)
	if err == nil && c.dead[node] {
		err = fmt.Errorf("node: Kill(%d): node is already dead", node)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.dead[node] = true
	c.mu.Unlock()
	iso.IsolateNode(node)
	// Drop the node's in-memory state: whatever cycles it is executing —
	// one per shard with an epoch in flight — fail at the node with a
	// peer-attributed fault (tolerated under graceful degradation; the other
	// nodes resolve each shard's cycle against its silence, and each shard's
	// report attributes the crash independently).
	fault := &peerFault{fmt.Errorf("node %d killed (crash injection)", node)}
	for s := range router.epochs {
		if ep := router.epochs[s].Load(); ep != nil {
			ep.rt.Fail(fault)
		}
	}
	return nil
}

// Restart brings a killed node back: its channels are restored (both ends
// observe the recovery), and — per the resync-at-epoch-boundary rule — it
// rejoins as a clean member from the next cycle, with fresh per-cycle state.
// Restarting a node that is not dead is an error.
func (c *Cluster) Restart(node int) error {
	c.mu.Lock()
	iso, _, err := c.crashTargetLocked("Restart", node)
	if err == nil && !c.dead[node] {
		err = fmt.Errorf("node: Restart(%d): node is not dead", node)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.dead[node] = false
	c.mu.Unlock()
	iso.HealNode(node)
	return nil
}

// crashTargetLocked validates a Kill/Restart target and resolves the
// transport's isolation capability. Caller holds c.mu.
func (c *Cluster) crashTargetLocked(op string, node int) (nodeIsolator, *nodeRouter, error) {
	if c.closed {
		return nil, nil, fmt.Errorf("node: %s(%d): cluster closed", op, node)
	}
	if c.eps == nil {
		return nil, nil, fmt.Errorf("node: %s(%d): no mesh dialed", op, node)
	}
	if node < 0 || node >= c.n {
		return nil, nil, fmt.Errorf("node: %s(%d): node out of range [0,%d)", op, node, c.n)
	}
	iso, ok := c.factory.(nodeIsolator)
	if !ok {
		return nil, nil, fmt.Errorf("node: %s(%d): transport %q cannot isolate nodes (wrap it in a transport.FaultyFactory)", op, node, c.factory.Kind())
	}
	return iso, c.routers[node], nil
}

// MeshDials reports how many times the cluster built a transport mesh — the
// persistent-mesh invariant is that any number of runs over one cluster cost
// exactly one dial.
func (c *Cluster) MeshDials() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meshDials
}

// Close tears the mesh down: endpoints close and the mesh's wire accounting
// is retained for WireStats. Close is idempotent; runs after Close fail.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	eps, routers := c.eps, c.routers
	// Fold the endpoints' accounting into retired in the same critical
	// section that unlinks them, so a WireStats racing Close never sees the
	// mesh half-gone (no live endpoints, empty retired). Close runs with no
	// cycle in flight, so the counters are quiescent up to teardown noise.
	for _, ep := range eps {
		c.retired.Add(ep.Stats())
	}
	c.eps, c.routers = nil, nil
	c.mu.Unlock()

	// Routers are closed before the endpoints: tearing a mesh down severs
	// every connection, and the remote readers racing it would otherwise
	// register the deliberate shutdown as peer failures.
	for _, r := range routers {
		r.close()
	}
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// WireStats returns the cumulative encoded-byte accounting of the cluster's
// mesh — the measured on-wire cost standing next to the protocol-level bit
// meters. With the mesh persistent, its Conns counter is flat across cycles:
// connections are established once at dial time, never per flush.
func (c *Cluster) WireStats() transport.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.retired
	for _, ep := range c.eps {
		st.Add(ep.Stats())
	}
	return st
}

// Run executes body at each of cfg.N processors as one epoch of shard 0
// over the persistent mesh, one networked node per processor — the Cluster
// analogue of sim.Run and the engine's Runner entry point for an unsharded
// deployment.
func (c *Cluster) Run(cfg sim.RunConfig, body func(p *sim.Proc) any) *sim.RunResult {
	return c.run(0, cfg, body)
}

// ShardRunner is one shard's runner handle: an engine drives its cycles
// through it, and every cycle runs as an epoch of that shard's id lane.
// Handles of different shards run concurrently over the shared mesh.
type ShardRunner struct {
	c     *Cluster
	shard int
}

// ShardRunner returns the runner handle of shard k (0 <= k < Shards; range
// errors surface as run failures, like every other deployment fault).
func (c *Cluster) ShardRunner(k int) *ShardRunner {
	return &ShardRunner{c: c, shard: k}
}

// Run executes one epoch on the handle's shard.
func (r *ShardRunner) Run(cfg sim.RunConfig, body func(p *sim.Proc) any) *sim.RunResult {
	return r.c.run(r.shard, cfg, body)
}

func (c *Cluster) run(shard int, cfg sim.RunConfig, body func(p *sim.Proc) any) *sim.RunResult {
	res := &sim.RunResult{Meter: metrics.NewMeter(), Values: make([]any, cfg.N)}
	fail := func(err error) *sim.RunResult {
		res.Err = err
		return res
	}

	faulty := make([]bool, cfg.N)
	for _, f := range cfg.Faulty {
		if f < 0 || f >= cfg.N {
			return fail(fmt.Errorf("node: faulty id %d out of range [0,%d)", f, cfg.N))
		}
		faulty[f] = true
	}
	// One adversary is shared by all nodes, serialized. Under the cluster
	// each faulty node applies it to its own traffic, so a stateful
	// adversary observes per-node call streams rather than the simulator's
	// global one; the bundled gallery is stateless.
	var adv sim.Adversary
	if cfg.Adversary != nil {
		adv = sim.LockAdversary(cfg.Adversary)
	}

	// Graceful-degradation bound: at most n-1 peers can ever be defaulted.
	degrade := cfg.DegradePeers
	if degrade >= cfg.N {
		degrade = cfg.N - 1
	}

	c.mu.Lock()
	if err := c.connectLocked(cfg.N); err != nil {
		c.mu.Unlock()
		return fail(err)
	}
	if shard < 0 || shard >= c.shards {
		c.mu.Unlock()
		return fail(fmt.Errorf("node: shard %d out of range [0,%d)", shard, c.shards))
	}
	sr := &c.runs[shard]
	shardBits := c.shardBits
	c.mu.Unlock()

	// Per-shard run serialization: one epoch at a time owns this shard's id
	// lane, while other shards' epochs proceed concurrently on the same mesh.
	sr.mu.Lock()
	defer sr.mu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fail(errors.New("node: cluster closed"))
	}
	epoch := sr.nextEpoch
	sr.nextEpoch++
	eps, routers := c.eps, c.routers
	dead := append([]bool(nil), c.dead...)
	c.mu.Unlock()

	// One runtime per node; the persistent endpoint and router of each node
	// are shared by every run.
	var roundWait *obs.Histogram
	var inboxDepth *obs.Gauge
	if c.Obs != nil {
		roundWait = c.Obs.Histogram("node_round_wait_ns")
		inboxDepth = c.Obs.Gauge("node_inbox_depth")
	}
	runtimes := make([]*runtime, cfg.N)
	for i := range runtimes {
		router := routers[i]
		runtimes[i] = newRuntime(options{
			id: i, n: cfg.N,
			wireInst: wire.ComposeInstance(epoch, shard, shardBits),
			faulty:   faulty, adv: adv,
			procRand:     sim.LazyRand(sim.ProcSeed(cfg.Seed, i)),
			advRand:      sim.LazyRand(sim.ProcSeed(cfg.Seed^0x5DEECE66D, i)),
			meter:        res.Meter,
			countRounds:  i == 0,
			stallTimeout: c.StallTimeout,
			// Stalls are attributed to the shard whose cycle observed them.
			onStall:         func(peer int) { router.observeStall(shard, peer) },
			degrade:         degrade,
			send:            eps[i].Send,
			recycleSendBufs: !eps[i].Retains(),
			roundWait:       roundWait,
			inboxDepth:      inboxDepth,
		})
	}

	// Attach this epoch to the persistent routers: incoming frames for the
	// claimed id route to the fresh runtimes, frames of earlier epochs are
	// discarded by tag, and peer channels already known broken replay into
	// the new inboxes.
	for i, rt := range runtimes {
		routers[i].begin(shard, epoch, rt)
	}

	// spent marks the processors the run charges to its fault budget
	// whatever else degraded: the Byzantine ones, and — filled in below —
	// killed nodes and nodes whose run ended on a tolerated peer fault.
	spent := slices.Clone(faulty)
	var errMu sync.Mutex
	var bodies sync.WaitGroup
	for i, rt := range runtimes {
		if dead[i] {
			// A hard-killed node runs nothing: its value stays missing and
			// the surviving nodes resolve the run against its silence.
			continue
		}
		bodies.Add(1)
		go func() {
			defer bodies.Done()
			v, err := rt.run(body)
			res.Values[i] = v
			if err == nil {
				return
			}
			errMu.Lock()
			defer errMu.Unlock()
			if degrade > 0 && isPeerFault(err) {
				// The node's run failed on a broken peer channel (or the
				// node itself was killed): under graceful degradation its
				// value goes missing instead of latching the failure
				// run-wide.
				spent[i] = true
				return
			}
			if res.Err == nil {
				res.Err = err
			}
			// Propagate the failure to the other nodes: the in-process
			// analogue of the simulator's shared run failure. (Over TCP a
			// crashed node is also detected via its broken connections; the
			// latch just reports the original error instead of a generic
			// EOF.)
			for _, other := range runtimes {
				other.Fail(err)
			}
		}()
	}
	bodies.Wait()
	// Detach the epoch. Honest traffic is fully consumed once every body
	// returned (one frame per peer per step, every step awaited); whatever a
	// failed run left in flight is dropped by the next epoch's id check.
	// Each router also reports which peers it observed down during the run,
	// as (observer, down peer) pairs: the run's membership gap.
	// Nodes killed during the run are excluded as observers: a dead node's
	// router saw every channel sever at once, which says nothing about the
	// surviving membership.
	c.mu.Lock()
	deadNow := append([]bool(nil), c.dead...)
	c.mu.Unlock()
	downSet := make([]bool, cfg.N)
	degradedSet := make([]bool, cfg.N)
	var downPairs [][2]int // (observer, down peer)
	var pairs [][2]int     // (observer, degraded peer)
	for i, router := range routers {
		down := router.end(shard)
		if dead[i] || deadNow[i] {
			spent[i] = true
			continue
		}
		for _, peer := range down {
			downSet[peer] = true
			downPairs = append(downPairs, [2]int{i, peer})
		}
		for _, peer := range runtimes[i].inbox.degradedPeers() {
			degradedSet[peer] = true
			pairs = append(pairs, [2]int{i, peer})
		}
	}
	if degrade > 0 {
		if err := checkFaultBudget(spent, pairs, degrade); err != nil && res.Err == nil {
			res.Err = err
		}
		// Charge down channels as degraded ones are charged; past the
		// budget the raw union of observed-down peers stands.
		if len(downPairs) > 0 {
			if charged := cover(spent, downPairs, degrade); charged != nil {
				downSet = charged
			}
		}
	}
	for peer, d := range downSet {
		if d {
			res.PeersDown = append(res.PeersDown, peer)
		}
	}
	for peer, d := range degradedSet {
		if d {
			res.DegradedPeers = append(res.DegradedPeers, peer)
		}
	}
	return res
}

// checkFaultBudget checks the cycle's degradation against the fault budget
// across nodes. Each inbox keeps its own view within budget, but two honest
// observers degrading around two different peers each stay within t while
// the cycle as a whole does not. A degraded pair (observer, peer) is a
// channel fault, explained by either end being faulty — so a cut link costs
// one unit, not two. The cycle is within budget when some set of at most
// budget processors contains every spent one and touches every pair: a
// vertex cover (see cover).
func checkFaultBudget(spent []bool, pairs [][2]int, budget int) error {
	if cover(spent, pairs, budget) != nil {
		return nil
	}
	var charged []int
	for i, sp := range spent {
		if sp {
			charged = append(charged, i)
		}
	}
	var chans []string
	for _, p := range pairs {
		chans = append(chans, fmt.Sprintf("%d→%d", p[0], p[1]))
	}
	return fmt.Errorf("node: fault budget t=%d exceeded: no %d processors including %v cover the degraded channels [%s] (observer→peer)",
		budget, budget, charged, strings.Join(chans, " "))
}

// cover returns the union of every smallest processor set that contains
// each forced processor and touches every pair, restricted to the pairs'
// ends, or nil when those sets exceed limit. It branches on an uncovered pair's two ends, one added
// processor deeper at a time (cost exponential only in limit); at the first
// depth that completes a cover, the leaves are exactly the smallest covers.
// A greedy matching of the pairs no forced processor touches needs one
// added processor per matched pair, so it sets the first depth and rules
// out, in O(pairs), a cover that cannot fit.
func cover(forced []bool, pairs [][2]int, limit int) []bool {
	in := slices.Clone(forced)
	for _, f := range forced {
		if f {
			limit-- // the headroom left for added processors
		}
	}
	matched := slices.Clone(forced)
	minAdded := 0
	for _, p := range pairs {
		if !matched[p[0]] && !matched[p[1]] {
			matched[p[0]], matched[p[1]] = true, true
			minAdded++
		}
	}
	for k := minAdded; k <= limit; k++ {
		union := make([]bool, len(forced))
		if coverLeaves(in, pairs, k, union) {
			return union
		}
	}
	return nil
}

// coverLeaves adds at most k processors to in, branching on every pair not
// yet touched, and marks in union each completed cover it reaches. It
// reports whether it reached one; in is restored before it returns.
func coverLeaves(in []bool, pairs [][2]int, k int, union []bool) bool {
	for _, p := range pairs {
		if in[p[0]] || in[p[1]] {
			continue
		}
		if k == 0 {
			return false
		}
		found := false
		for _, v := range p {
			in[v] = true
			found = coverLeaves(in, pairs, k-1, union) || found
			in[v] = false
		}
		return found
	}
	for _, p := range pairs {
		for _, v := range p {
			union[v] = union[v] || in[v]
		}
	}
	return true
}

// routerEpoch is one run's attachment to a node's persistent router: the
// run's epoch id and the node's runtime.
type routerEpoch struct {
	id int
	rt *runtime
}

// peerState is one peer channel's failure state at a router: the current
// failure (nil = healthy) and whether it is permanent. Transient losses —
// dropped connections, injected faults — are cleared by the transport's
// PeerUp once the channel recovers; protocol-level violations (undecodable
// frame headers, unknown epoch ids, transports'
// permanent demotions) never are.
type peerState struct {
	err       error
	permanent bool
}

// nodeRouter is one node's persistent receive routing: it decodes incoming
// frames and routes them to the runtime of the current epoch. It implements transport.Sink (and transport.RecoverySink), so the
// transport invokes it directly from its delivery context. Frames
// whose payloads do not decode degrade to payload-free frames (⊥ messages —
// a legal Byzantine payload); frames whose headers do not decode, epoch ids
// beyond the current epoch, and broken connections are
// channel-level violations scoped to the offending peer: a round that
// already holds that peer's frames still completes, and only a round
// genuinely missing one fails. Frames whose epoch id predates the current
// epoch are stale leftovers of an earlier cycle and are dropped silently.
//
// Failure scoping: a peer-channel failure is replayed into the inboxes of
// every epoch that begins while it stands — but no further. A transient loss
// cleared by the transport's recovery (PeerUp) leaves the next epoch clean;
// only protocol violations latch forever. Recovery is resynchronized at the
// epoch boundary: a PeerUp never touches the current epoch's inboxes, so a
// rejoining peer participates only from the next epoch — there is no
// mid-generation rejoin, preserving the synchronous-round model within
// each epoch.
//
// Shard scoping: epoch attachment, the observed-down set and the stale-frame
// id check are per shard — shard k's epoch routes only frames whose
// composed id names shard k, and a fault observed while only shard
// k has a cycle in flight appears in shard k's report alone. The peer
// failure state itself is physical (one channel per peer, shared by every
// shard riding the mesh), so a standing failure replays into whichever
// shard's epoch begins next — each shard attributing the same physical fault
// independently — and a recovery heals it for all shards' future epochs at
// once.
type nodeRouter struct {
	node      int
	n         int
	shardBits uint
	epochs    []atomic.Pointer[routerEpoch] // one per shard; nil between runs
	tracer    *obs.Tracer                   // peer lifecycle events; nil-safe

	mu       sync.Mutex
	peers    []peerState
	observed [][]bool // [shard][peer] seen down during the shard's current epoch
	closed   bool     // cluster teardown: suppress further lifecycle events
}

func newNodeRouter(node, n, shards int, shardBits uint) *nodeRouter {
	r := &nodeRouter{
		node: node, n: n, shardBits: shardBits,
		epochs: make([]atomic.Pointer[routerEpoch], shards),
		peers:  make([]peerState, n),
	}
	r.observed = make([][]bool, shards)
	for s := range r.observed {
		r.observed[s] = make([]bool, n)
	}
	return r
}

// begin attaches a run's runtime to one shard of the router and replays the
// currently standing failure state into its fresh inbox. The epoch is
// published before the failure state is snapshotted: a PeerDown racing begin
// then either lands in the snapshot (replayed below) or sees the stored
// epoch and delivers live — possibly both, which inbox.peerDown's
// first-failure-wins makes idempotent. Snapshot-first would lose a failure
// arriving in between to neither path. The shard's per-epoch observation set
// starts as exactly the replayed failures: a peer healed before the epoch
// began is a clean member of this cycle.
func (r *nodeRouter) begin(shard, id int, rt *runtime) {
	r.epochs[shard].Store(&routerEpoch{id: id, rt: rt})
	r.mu.Lock()
	down := make([]error, r.n)
	for peer := range r.peers {
		down[peer] = r.peers[peer].err
		r.observed[shard][peer] = down[peer] != nil
	}
	r.mu.Unlock()
	for peer, err := range down {
		if err != nil {
			rt.inbox.peerDown(peer, err)
		}
	}
}

// end detaches one shard's current epoch and returns the peers that shard
// observed down during it (for the cycle's membership report); frames
// arriving for the shard until its next begin are stale by definition and
// dropped.
func (r *nodeRouter) end(shard int) []int {
	r.epochs[shard].Store(nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	var down []int
	for peer, seen := range r.observed[shard] {
		if seen {
			down = append(down, peer)
		}
	}
	return down
}

// close suppresses further lifecycle events: the cluster marks every router
// closed before it closes the endpoints, so the connection teardown of a
// deliberate mesh shutdown cannot register as peer failures.
func (r *nodeRouter) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// PeerDown implements transport.Sink. Transient channel losses (per
// transport.Transient) are recoverable — PeerUp clears them — while protocol
// violations latch permanently; either way the failure is delivered to the
// current epoch's inboxes, failing only rounds that genuinely miss the
// peer's frames.
func (r *nodeRouter) PeerDown(peer int, err error) {
	if peer < 0 || peer >= r.n {
		return
	}
	transient := transport.Transient(err)
	err = fmt.Errorf("node %d: %w", r.node, err)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	st := &r.peers[peer]
	switch {
	case st.err == nil:
		st.err, st.permanent = err, !transient
	case !st.permanent && !transient:
		// A permanent conviction upgrades a standing transient failure.
		st.err, st.permanent = err, true
	default:
		err = st.err // the epoch keeps seeing the first failure
	}
	// The fault is physical, so every shard with a cycle in flight observes
	// it (their inboxes receive it below); idle shards' marks are reset from
	// the then-standing failure state when their next epoch begins.
	for s := range r.observed {
		r.observed[s][peer] = true
	}
	r.mu.Unlock()
	if r.tracer.Enabled() {
		kind := "transient"
		if !transient {
			kind = "permanent"
		}
		r.tracer.Emit(obs.Event{Cat: "peer", Name: "down", Node: peer,
			Detail: fmt.Sprintf("at=%d %s: %v", r.node, kind, err)})
	}
	for s := range r.epochs {
		if ep := r.epochs[s].Load(); ep != nil {
			ep.rt.inbox.peerDown(peer, err)
		}
	}
}

// PeerUp implements transport.RecoverySink: a recovered transient failure is
// cleared, so the next epoch begins with the peer as a clean member. The
// current epoch's inboxes are deliberately left untouched — the rejoining
// peer missed rounds this cycle already depends on, so it participates only
// from the next epoch (the resync-at-epoch-boundary rule).
func (r *nodeRouter) PeerUp(peer int) {
	if peer < 0 || peer >= r.n {
		return
	}
	r.mu.Lock()
	cleared := !r.closed && !r.peers[peer].permanent && r.peers[peer].err != nil
	if cleared {
		r.peers[peer].err = nil
	}
	r.mu.Unlock()
	if cleared && r.tracer.Enabled() {
		r.tracer.Emit(obs.Event{Cat: "peer", Name: "up", Node: peer,
			Detail: fmt.Sprintf("at=%d reconnected, rejoins next epoch", r.node)})
	}
}

// observeStall records a stall-detector isolation for one shard's cycle
// membership report. The stall is scoped to the inbox that detected it
// (inherently per-cycle, hence per-shard), so unlike PeerDown nothing
// latches in the router: the peer starts the next epoch clean unless its
// channel actually broke.
func (r *nodeRouter) observeStall(shard, peer int) {
	if peer < 0 || peer >= r.n {
		return
	}
	r.mu.Lock()
	stalled := !r.closed
	if stalled {
		r.observed[shard][peer] = true
	}
	r.mu.Unlock()
	if stalled && r.tracer.Enabled() {
		r.tracer.Emit(obs.Event{Cat: "peer", Name: "stall", Node: peer,
			Detail: fmt.Sprintf("at=%d isolated for this cycle", r.node)})
	}
}

// Deliver implements transport.Sink. Frame buffers are returned to the
// transport pool once decoded (the bus hands over the sender's encode
// buffer, TCP its connection reader's read buffer).
func (r *nodeRouter) Deliver(fr transport.Frame) {
	f, err := wire.DecodeFrame(fr.Data)
	if err != nil {
		hdr, hErr := wire.DecodeFrameHeader(fr.Data)
		if hErr != nil {
			transport.PutBuf(fr.Data)
			r.PeerDown(fr.From, fmt.Errorf("undecodable frame from node %d: %w", fr.From, hErr))
			return
		}
		hdr.Payloads = nil
		f = hdr
	}
	transport.PutBuf(fr.Data)
	id, shard := wire.SplitInstance(f.Instance, r.shardBits)
	if shard >= len(r.epochs) {
		// The shard field decodes but names no configured shard: a protocol
		// violation by the sender, convicted like an unknown epoch id.
		wire.PutFrame(f)
		r.PeerDown(fr.From, fmt.Errorf("frame from node %d for unknown shard %d", fr.From, shard))
		return
	}
	ep := r.epochs[shard].Load()
	if ep == nil || id < ep.id {
		// Stale: the frame belongs to an earlier epoch of its shard (an
		// aborted run's leftovers, or delivery racing a cycle's teardown).
		// The persistent mesh replaces the old fresh-mesh-per-run fence with
		// this per-shard tag check.
		wire.PutFrame(f)
		return
	}
	if id > ep.id {
		wire.PutFrame(f)
		r.PeerDown(fr.From, fmt.Errorf("frame from node %d for unknown instance %d (shard %d)", fr.From, f.Instance, shard))
		return
	}
	ep.rt.inbox.push(fr.From, f)
}
