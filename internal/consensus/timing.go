package consensus

import "time"

// phaseClock measures one generation's wall-clock partition for
// Params.PhaseTimer. A nil clock (hook unset, or not processor 0) makes
// every method a nil-check no-op, so the untimed hot path pays a handful
// of predictable branches per generation and nothing else.
//
// The partition: broadcast and rs accumulate the time inside
// Broadcast_Single_Bit and RS kernel calls wherever they occur;
// enterDiag snapshots the accumulators at the stage-3 boundary, so finish
// can attribute the stage-1/2 residual to PhaseMatch and the stage-3
// residual to PhaseDiagnosis. The four reported durations are disjoint
// and sum to the generation's total.
type phaseClock struct {
	timer       func(procID, gen int, ph Phase, d time.Duration)
	procID, gen int
	start       time.Time
	bcast, rs   time.Duration // accumulated over the whole generation
	bcast12     time.Duration // snapshot of bcast at diagnosis entry
	rs12        time.Duration // snapshot of rs at diagnosis entry
	diagStart   time.Time     // zero when the diagnosis stage never ran
}

// clock returns a running phase clock for generation g, or nil when timing
// is off or this is not the metering processor. The clock lives in the
// worker, so timing a generation allocates nothing.
func (pr *worker) clock(g int) *phaseClock {
	if pr.par.PhaseTimer == nil || pr.p.ID != 0 {
		return nil
	}
	pr.pc = phaseClock{timer: pr.par.PhaseTimer, procID: pr.p.ID, gen: g, start: time.Now()}
	return &pr.pc
}

// now returns the current time, or the zero time on a nil clock.
func (c *phaseClock) now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// addBcast charges time since t0 to the broadcast phase.
func (c *phaseClock) addBcast(t0 time.Time) {
	if c != nil {
		c.bcast += time.Since(t0)
	}
}

// addRS charges time since t0 to the RS phase.
func (c *phaseClock) addRS(t0 time.Time) {
	if c != nil {
		c.rs += time.Since(t0)
	}
}

// enterDiag marks the stage-3 boundary.
func (c *phaseClock) enterDiag() {
	if c != nil {
		c.diagStart = time.Now()
		c.bcast12, c.rs12 = c.bcast, c.rs
	}
}

// finish emits the four phase durations. Deferred from generation, so an
// aborted generation's partial work is still attributed.
func (c *phaseClock) finish() {
	if c == nil {
		return
	}
	end := time.Now()
	// With no diagnosis all broadcast/RS time belongs to stages 1-2.
	stage12End, b12, r12 := end, c.bcast, c.rs
	var diagDur time.Duration
	if !c.diagStart.IsZero() {
		stage12End, b12, r12 = c.diagStart, c.bcast12, c.rs12
		diagDur = end.Sub(c.diagStart) - (c.bcast - b12) - (c.rs - r12)
	}
	matchDur := stage12End.Sub(c.start) - b12 - r12
	if matchDur < 0 {
		matchDur = 0
	}
	if diagDur < 0 {
		diagDur = 0
	}
	c.timer(c.procID, c.gen, PhaseMatch, matchDur)
	c.timer(c.procID, c.gen, PhaseBroadcast, c.bcast)
	c.timer(c.procID, c.gen, PhaseRS, c.rs)
	c.timer(c.procID, c.gen, PhaseDiagnosis, diagDur)
}
