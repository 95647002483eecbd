package main

import (
	"time"

	"byzcons"
	"byzcons/internal/bsb"
)

// counterLayers derives the per-layer metrics that need only the program's
// public counters at the two ends of the measure window. Layers a workload
// bypasses (wire and transport on the simulator) read 0.
func counterLayers(w Workload, from, to snap, met byzcons.MetricsSnapshot, p *pass) map[string]float64 {
	secs := to.at.Sub(from.at).Seconds()
	decided := float64(to.stats.Decided - from.stats.Decided)
	cycles := float64(to.stats.Cycles - from.stats.Cycles)
	bits := float64(to.stats.Bits - from.stats.Bits)
	rounds := float64(to.stats.Rounds - from.stats.Rounds)
	frames := float64(to.wire.FramesSent - from.wire.FramesSent)
	bytes := float64(to.wire.BytesSent - from.wire.BytesSent)
	cpu := (to.cpu - from.cpu).Seconds()
	us := func(name string) float64 { return float64(met.Histograms[name].P50) / 1e3 }

	m := map[string]float64{
		"engine.values_per_cycle": ratio(decided, cycles),
		"engine.cycles_per_s":     ratio(cycles, secs),
		// Registry quantiles are log-bucket upper bounds: at most 2x high,
		// and cumulative since Open (warm-up included).
		"engine.queue_wait_p50_ms": us("engine_queue_wait_ns") / 1e3,
		"node.round_wait_p50_us":   us("node_round_wait_ns"),
		"transport.write_p50_us":   us("transport_write_ns"),

		"consensus.rounds_per_cycle": ratio(rounds, cycles),
		"node.frames_per_round":      ratio(frames, rounds),
		"wire.bytes_per_frame":       ratio(bytes, frames),
		"wire.expansion":             ratio(bytes*8, bits),
		"transport.frames_per_value": ratio(frames, decided),
		"transport.bytes_per_value":  ratio(bytes, decided),
		"transport.reconnects":       float64(to.wire.Reconnects),

		"mem.mallocs_per_value":  ratio(float64(to.mem.Mallocs-from.mem.Mallocs), decided),
		"mem.gc_per_s":           ratio(float64(to.mem.NumGC-from.mem.NumGC), secs),
		"mem.gc_pause_ms_per_s":  ratio(float64(to.mem.PauseTotalNs-from.mem.PauseTotalNs)/1e6, secs),
		"sched.cpu_ms_per_value": ratio(cpu*1e3, decided),
		"sched.cpu_util":         ratio(cpu, secs),
		"gen.late_p99_ms":        percentile(p.lateMs, 0.99),
		"gen.over_limit_share":   0,
		// Not published: rs.share_of_cycle_pct is computed from it.
		"sched.cpu_ms_per_cycle": ratio(cpu*1e3, cycles),
	}
	if w.OpenRate > 0 {
		over := 0
		for _, r := range p.recs {
			if !r.served() {
				over++
			}
		}
		m["gen.over_limit_share"] = ratio(float64(over), float64(len(p.recs)))
	}
	return m
}

// broadcastCost is B, the bits one Broadcast_Single_Bit costs at the
// workload's substrate, as the protocol itself computes it for Eq. 2.
func broadcastCost(w Workload) int64 {
	b, err := bsb.New(w.Broadcast, nil, w.N, w.T)
	if err != nil {
		return byzcons.DefaultBroadcastCost(w.N)
	}
	return b.CostPerBit()
}

// tracedLayers adds what needs FlushReports and spans: the per-cycle protocol
// counts, the cycle's share of a burst, and the span tree itself. A "burst"
// is the run of values one flush cycle resolved — the engine takes proposals
// in submission order, so cycle k's Values are the next Values sequence
// numbers.
func tracedLayers(res *PassResult, p *pass, log *spanLog, opened time.Time, from, to snap) {
	w := p.w
	warmup := log.add("warmup", 0, -1, opened, from.at)
	window := log.add("measure", 0, -1, from.at, to.at)

	var cycleMs, outsideMs []float64
	var gens, batches, diag, squash, pipelined, predicted, measuredBits float64
	var match, bcast, rs, diagT time.Duration
	n := 0
	B := broadcastCost(w)
	next := 0
	// The session is still open: the report of the open loop's last,
	// unrecorded value may arrive while this runs.
	p.mu.Lock()
	cycles := p.cycles
	p.mu.Unlock()
	for k, c := range cycles {
		first, last := next, next+c.rep.Values-1
		next += c.rep.Values
		if c.rep.Values == 0 || last >= len(p.decidedAt) {
			res.Violations = append(res.Violations, "trace accounting: FlushReports name more values than the harness submitted")
			break
		}
		start, end := p.originAt[first], p.decidedAt[last]
		cycStart := c.end.Add(-c.rep.Timing.Cycle)
		inWindow := !c.end.Before(from.at) && !c.end.After(to.at)
		parent := warmup
		if inWindow {
			parent = window
		} else if c.end.After(to.at) {
			parent = 0
		}
		b := log.add("burst", parent, k, start, end)
		log.add("submit", b, k, start, p.submitAt[last])
		log.add("wait", b, k, p.submitAt[last], end)
		log.add("cycle", b, k, cycStart, c.end)
		if !inWindow {
			continue
		}
		n++
		cycleMs = append(cycleMs, float64(c.rep.Timing.Cycle)/1e6)
		outsideMs = append(outsideMs, float64(end.Sub(start)-c.rep.Timing.Cycle)/1e6)
		var pr int64
		for _, bs := range c.rep.Batches {
			batches++
			gens += float64(bs.Generations)
			diag += float64(bs.DiagnosisRuns)
			squash += float64(bs.Squashes)
			pr = max(pr, bs.PipelinedRounds)
			L := int64(bs.PackedBits)
			D := byzcons.OptimalD(w.N, w.T, 0, L, B)
			predicted += float64(byzcons.PredictCcon(w.N, w.T, L, D, B))
			measuredBits += float64(bs.Bits)
		}
		pipelined += float64(pr)
		match += c.rep.Timing.Match
		bcast += c.rep.Timing.Broadcast
		rs += c.rep.Timing.RS
		diagT += c.rep.Timing.Diagnosis
	}
	cyc := float64(n)
	ms := func(d time.Duration) float64 { return ratio(float64(d)/1e6, cyc) }
	l := res.Layers
	l["engine.cycle_p50_ms"] = median(cycleMs)
	l["engine.outside_cycle_p50_ms"] = median(outsideMs)
	l["consensus.generations_per_instance"] = ratio(gens, batches)
	l["consensus.pipelined_rounds_per_cycle"] = ratio(pipelined, cyc)
	l["consensus.diagnosis_runs_per_cycle"] = ratio(diag, cyc)
	l["consensus.squashes_per_cycle"] = ratio(squash, cyc)
	l["consensus.bits_over_formula"] = ratio(measuredBits, predicted)
	// As reported by the program; known not to partition the cycle (ROADMAP
	// item 2): the timers are summed over concurrent instances.
	l["consensus.reported_match_ms"] = ms(match)
	l["consensus.reported_broadcast_ms"] = ms(bcast)
	l["consensus.reported_rs_ms"] = ms(rs)
	l["consensus.reported_diagnosis_ms"] = ms(diagT)
	// Not published: rs.share_of_cycle_pct is computed from it.
	l["consensus.generations_per_cycle"] = ratio(gens, cyc)
	l["node.round_us"] = ratio(sum(cycleMs)*1e3, pipelined)
	if w.Byzantine && diag == 0 {
		res.Violations = append(res.Violations, "consensus.diagnosis_runs_per_cycle is 0: the injected fault never fired")
	}
}
