// Package chaos is the deterministic fault-injection engine of the
// reproduction's robustness layer: a seeded, replayable timeline of network
// and node faults — cuts, partitions, delay storms, crash-restarts — driven
// against the transport's injection surface (transport.FaultyFactory) and
// the cluster's crash API (node.Cluster).
//
// A Schedule is parsed from a compact "seed:events" spec and fired by an
// Engine at two kinds of anchors:
//
//   - Cycle anchors ("@c2"): the event fires synchronously at the flush-cycle
//     boundary, before the anchored cycle runs. Cycle-anchored schedules are
//     fully deterministic — two runs with the same (seed, schedule) fire the
//     same events at the same protocol points and produce identical fault
//     logs and identical decision bits.
//   - Wall-clock anchors ("@150ms"): the event fires that long after
//     Engine.Start. Wall anchors model asynchronous outages; they are
//     replayable in fault-log terms (the log records the event and its spec,
//     not the wall time) but their interleaving with protocol rounds is
//     best-effort, so bit-identity claims only hold across windows the
//     schedule leaves fault-free.
//
// The seed drives every piece of injected randomness (today: delay jitter,
// via transport.FaultyFactory.Seed), so a chaos run is reproducible from
// (seed, schedule) alone. Every fired event is recorded in the engine's log
// and, when a tracer is wired, emitted as a Cat="chaos" trace event next to
// the peer-lifecycle events it causes.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"byzcons/internal/obs"
)

// Injector is the transport-level fault surface a schedule drives;
// transport.FaultyFactory implements it.
type Injector interface {
	CutPair(i, j int)
	HealPair(i, j int)
	Partition(groups ...[]int) error
	HealAll()
	DelayPair(i, j int, d, jitter time.Duration)
	DelayAll(d, jitter time.Duration)
	HealDelays()
}

// Crasher is the node-level crash-restart surface; node.Cluster implements
// it. Nil is allowed when the schedule contains no crash/restart events.
type Crasher interface {
	Kill(node int) error
	Restart(node int) error
}

// Action enumerates the fault primitives a schedule can fire.
type Action uint8

const (
	ActCut Action = iota
	ActHeal
	ActPartition
	ActHealAll
	ActDelay
	ActDelayAll
	ActHealDelays
	ActCrash
	ActRestart
)

var actionNames = [...]string{
	ActCut: "cut", ActHeal: "heal", ActPartition: "partition", ActHealAll: "healall",
	ActDelay: "delay", ActDelayAll: "delayall", ActHealDelays: "healdelays",
	ActCrash: "crash", ActRestart: "restart",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", a)
}

// Event is one scheduled fault. Exactly one anchor applies: Cycle >= 0
// anchors the event to a flush-cycle boundary (fired before that cycle
// runs); Cycle < 0 anchors it At after Engine.Start on the wall clock.
type Event struct {
	Action Action
	// A and B are the node operands of pair and node actions (cut, heal,
	// delay, crash, restart); B is unused by single-node actions.
	A, B int
	// Groups are the partition's node sets (ActPartition only); nodes listed
	// in none form one implicit group.
	Groups [][]int
	// Delay and Jitter parameterize ActDelay/ActDelayAll.
	Delay, Jitter time.Duration
	// Cycle is the cycle anchor (>= 0), or -1 for a wall-clock event.
	Cycle int
	// At is the wall-clock offset from Engine.Start (Cycle < 0 only).
	At time.Duration
}

// String renders the event in the schedule spec syntax it parses from.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Action.String())
	switch e.Action {
	case ActCut, ActHeal:
		fmt.Fprintf(&b, "(%d,%d)", e.A, e.B)
	case ActPartition:
		b.WriteByte('(')
		for g, members := range e.Groups {
			if g > 0 {
				b.WriteByte('|')
			}
			for m, id := range members {
				if m > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(id))
			}
		}
		b.WriteByte(')')
	case ActDelay:
		fmt.Fprintf(&b, "(%d,%d,%s,%s)", e.A, e.B, e.Delay, e.Jitter)
	case ActDelayAll:
		fmt.Fprintf(&b, "(%s,%s)", e.Delay, e.Jitter)
	case ActCrash, ActRestart:
		fmt.Fprintf(&b, "(%d)", e.A)
	}
	if e.Cycle >= 0 {
		fmt.Fprintf(&b, "@c%d", e.Cycle)
	} else {
		fmt.Fprintf(&b, "@%s", e.At)
	}
	return b.String()
}

// Schedule is a seeded fault timeline.
type Schedule struct {
	// Seed drives every piece of injected randomness (delay jitter); wire it
	// into transport.FaultyFactory.Seed so (Seed, Events) replays the run.
	Seed   int64
	Events []Event
}

// String renders the schedule in the "seed:events" spec syntax.
func (s Schedule) String() string {
	specs := make([]string, len(s.Events))
	for i, e := range s.Events {
		specs[i] = e.String()
	}
	return fmt.Sprintf("%d:%s", s.Seed, strings.Join(specs, ";"))
}

// Validate checks every event's node operands against a deployment of n
// nodes.
func (s Schedule) Validate(n int) error {
	check := func(ev Event, id int) error {
		if id < 0 || id >= n {
			return fmt.Errorf("chaos: event %q: node %d out of range [0,%d)", ev, id, n)
		}
		return nil
	}
	for _, ev := range s.Events {
		switch ev.Action {
		case ActCut, ActHeal, ActDelay:
			if err := check(ev, ev.A); err != nil {
				return err
			}
			if err := check(ev, ev.B); err != nil {
				return err
			}
			if ev.A == ev.B {
				return fmt.Errorf("chaos: event %q: a node has no channel to itself", ev)
			}
		case ActCrash, ActRestart:
			if err := check(ev, ev.A); err != nil {
				return err
			}
		case ActPartition:
			for _, g := range ev.Groups {
				for _, id := range g {
					if err := check(ev, id); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Parse reads a "seed:events" schedule spec. Events are ';'-separated, each
// "action(args)@anchor":
//
//	cut(1,3)@c2          sever the 1–3 channel before flush cycle 2
//	heal(1,3)@c3         restore it before cycle 3
//	partition(0,1|2,3)@c1  split the mesh into node sets {0,1} and {2,3}
//	healall@c4           restore a pristine mesh (cuts and delays)
//	delay(0,2,5ms,2ms)@c1  delay the 0–2 channel: 5ms + jitter in [0,2ms]
//	delayall(5ms,2ms)@c1   mesh-wide delay storm
//	healdelays@c3        end the storm
//	crash(2)@c2          hard-kill node 2 (state dropped, channels severed)
//	restart(2)@c4        restart it; it rejoins at the next epoch boundary
//
// Anchors: "@cN" fires at the cycle-N boundary (deterministic), "@150ms"
// fires on the wall clock after Engine.Start. A missing anchor means "@c0"
// (before the first cycle). Partition groups are '|'-separated node lists;
// unlisted nodes form one implicit group, so partition(3)@c1 isolates
// node 3.
func Parse(spec string) (Schedule, error) {
	seedStr, evSpec, ok := strings.Cut(spec, ":")
	if !ok {
		return Schedule{}, fmt.Errorf("chaos: spec %q: want \"seed:events\" (e.g. \"7:cut(1,3)@c1;heal(1,3)@c2\")", spec)
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(seedStr), 10, 64)
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: spec %q: bad seed: %v", spec, err)
	}
	s := Schedule{Seed: seed}
	for _, part := range strings.Split(evSpec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Schedule{}, err
		}
		s.Events = append(s.Events, ev)
	}
	if len(s.Events) == 0 {
		return Schedule{}, fmt.Errorf("chaos: spec %q: no events", spec)
	}
	return s, nil
}

func parseEvent(spec string) (Event, error) {
	body, anchor, hasAnchor := strings.Cut(spec, "@")
	ev := Event{Cycle: 0}
	if hasAnchor {
		anchor = strings.TrimSpace(anchor)
		if rest, ok := strings.CutPrefix(anchor, "c"); ok {
			cyc, err := strconv.Atoi(rest)
			if err != nil || cyc < 0 {
				return ev, fmt.Errorf("chaos: event %q: bad cycle anchor %q", spec, anchor)
			}
			ev.Cycle = cyc
		} else {
			d, err := time.ParseDuration(anchor)
			if err != nil || d < 0 {
				return ev, fmt.Errorf("chaos: event %q: bad wall-clock anchor %q", spec, anchor)
			}
			ev.Cycle, ev.At = -1, d
		}
	}
	name, argStr := body, ""
	if open := strings.IndexByte(body, '('); open >= 0 {
		if !strings.HasSuffix(body, ")") {
			return ev, fmt.Errorf("chaos: event %q: unbalanced parentheses", spec)
		}
		name, argStr = body[:open], body[open+1:len(body)-1]
	}
	name = strings.TrimSpace(strings.ToLower(name))
	args := splitArgs(argStr)
	argErr := func(want string) error {
		return fmt.Errorf("chaos: event %q: %s wants %s", spec, name, want)
	}
	switch name {
	case "cut", "heal":
		ev.Action = ActCut
		if name == "heal" {
			ev.Action = ActHeal
		}
		if len(args) != 2 {
			return ev, argErr("(i,j)")
		}
		var err error
		if ev.A, err = strconv.Atoi(args[0]); err != nil {
			return ev, argErr("(i,j)")
		}
		if ev.B, err = strconv.Atoi(args[1]); err != nil {
			return ev, argErr("(i,j)")
		}
	case "partition":
		ev.Action = ActPartition
		for _, gSpec := range strings.Split(argStr, "|") {
			var g []int
			for _, idStr := range splitArgs(gSpec) {
				id, err := strconv.Atoi(idStr)
				if err != nil {
					return ev, argErr("(i,j,...|k,l,...)")
				}
				g = append(g, id)
			}
			if len(g) > 0 {
				ev.Groups = append(ev.Groups, g)
			}
		}
		if len(ev.Groups) == 0 {
			return ev, argErr("at least one group")
		}
	case "healall":
		ev.Action = ActHealAll
	case "delay":
		ev.Action = ActDelay
		if len(args) != 4 {
			return ev, argErr("(i,j,delay,jitter)")
		}
		var err error
		if ev.A, err = strconv.Atoi(args[0]); err != nil {
			return ev, argErr("(i,j,delay,jitter)")
		}
		if ev.B, err = strconv.Atoi(args[1]); err != nil {
			return ev, argErr("(i,j,delay,jitter)")
		}
		if ev.Delay, err = time.ParseDuration(args[2]); err != nil {
			return ev, argErr("(i,j,delay,jitter)")
		}
		if ev.Jitter, err = time.ParseDuration(args[3]); err != nil {
			return ev, argErr("(i,j,delay,jitter)")
		}
	case "delayall":
		ev.Action = ActDelayAll
		if len(args) != 2 {
			return ev, argErr("(delay,jitter)")
		}
		var err error
		if ev.Delay, err = time.ParseDuration(args[0]); err != nil {
			return ev, argErr("(delay,jitter)")
		}
		if ev.Jitter, err = time.ParseDuration(args[1]); err != nil {
			return ev, argErr("(delay,jitter)")
		}
	case "healdelays":
		ev.Action = ActHealDelays
	case "crash", "restart":
		ev.Action = ActCrash
		if name == "restart" {
			ev.Action = ActRestart
		}
		if len(args) != 1 {
			return ev, argErr("(node)")
		}
		var err error
		if ev.A, err = strconv.Atoi(args[0]); err != nil {
			return ev, argErr("(node)")
		}
	default:
		return ev, fmt.Errorf("chaos: event %q: unknown action %q", spec, name)
	}
	return ev, nil
}

func splitArgs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Record is one fired event in the engine's replayable fault log.
type Record struct {
	// Index is the event's position in Schedule.Events; the log is returned
	// sorted by it, so two runs of the same schedule compare equal
	// record-for-record whatever goroutine fired each event first.
	Index int
	// Event is the fired event's canonical spec string.
	Event string
	// Cycle is the cycle anchor the event fired at (-1 for wall-clock
	// events).
	Cycle int
	// Err carries an injection failure (e.g. crashing an already-dead
	// node), empty on success.
	Err string
}

// Engine fires a Schedule's events against an Injector (and optionally a
// Crasher), recording a deterministic fault log. Cycle-anchored events fire
// synchronously from OnCycle at flush-cycle boundaries; wall-clock events
// ride timers armed at Start. Every event fires at most once.
type Engine struct {
	sched  Schedule
	inj    Injector
	cr     Crasher
	tracer *obs.Tracer

	mu      sync.Mutex
	started bool
	stopped bool
	fired   []bool
	log     []Record
	timers  []*time.Timer
}

// New builds an engine over the schedule. cr may be nil when the schedule
// has no crash/restart events (firing one then records an error instead of
// crashing anything). tracer may be nil.
func New(sched Schedule, inj Injector, cr Crasher, tracer *obs.Tracer) *Engine {
	return &Engine{sched: sched, inj: inj, cr: cr, tracer: tracer,
		fired: make([]bool, len(sched.Events))}
}

// Start fires the events anchored before the first cycle (cycle 0) and arms
// the wall-clock timers. Idempotent.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.started = true
	var wall []int
	for i, ev := range e.sched.Events {
		if ev.Cycle < 0 {
			wall = append(wall, i)
		}
	}
	for _, i := range wall {
		i := i
		e.timers = append(e.timers, time.AfterFunc(e.sched.Events[i].At, func() {
			e.mu.Lock()
			defer e.mu.Unlock()
			e.fireLocked(i)
		}))
	}
	defer e.mu.Unlock()
	e.fireCycleLocked(0)
}

// OnCycle advances the cycle clock: the report of flush cycle `completed`
// is in, so events anchored at cycle completed+1 (and any earlier anchor a
// skipped report left behind) fire now, before the next cycle runs. Wire it
// after the session's per-cycle hook.
func (e *Engine) OnCycle(completed int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fireCycleLocked(completed + 1)
}

// fireCycleLocked fires every unfired event with a cycle anchor <= cycle, in
// schedule order. Caller holds e.mu.
func (e *Engine) fireCycleLocked(cycle int) {
	if e.stopped {
		return
	}
	for i, ev := range e.sched.Events {
		if !e.fired[i] && ev.Cycle >= 0 && ev.Cycle <= cycle {
			e.fireLocked(i)
		}
	}
}

// fireLocked executes one event and records it. Caller holds e.mu; the
// injection runs under it, serializing chaos mutations against each other.
func (e *Engine) fireLocked(i int) {
	if e.stopped || e.fired[i] {
		return
	}
	e.fired[i] = true
	ev := e.sched.Events[i]
	var err error
	switch ev.Action {
	case ActCut:
		e.inj.CutPair(ev.A, ev.B)
	case ActHeal:
		e.inj.HealPair(ev.A, ev.B)
	case ActPartition:
		err = e.inj.Partition(ev.Groups...)
	case ActHealAll:
		e.inj.HealAll()
	case ActDelay:
		e.inj.DelayPair(ev.A, ev.B, ev.Delay, ev.Jitter)
	case ActDelayAll:
		e.inj.DelayAll(ev.Delay, ev.Jitter)
	case ActHealDelays:
		e.inj.HealDelays()
	case ActCrash:
		if e.cr == nil {
			err = fmt.Errorf("chaos: no crasher wired for %q", ev)
		} else {
			err = e.cr.Kill(ev.A)
		}
	case ActRestart:
		if e.cr == nil {
			err = fmt.Errorf("chaos: no crasher wired for %q", ev)
		} else {
			err = e.cr.Restart(ev.A)
		}
	}
	rec := Record{Index: i, Event: ev.String(), Cycle: ev.Cycle}
	if err != nil {
		rec.Err = err.Error()
	}
	e.log = append(e.log, rec)
	if e.tracer.Enabled() {
		detail := rec.Event
		if rec.Err != "" {
			detail += " err=" + rec.Err
		}
		e.tracer.Emit(obs.Event{Cat: "chaos", Name: ev.Action.String(),
			Cycle: ev.Cycle, Detail: detail})
	}
}

// Stop cancels pending wall-clock timers; no further event fires. Idempotent.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	for _, t := range e.timers {
		t.Stop()
	}
	e.timers = nil
}

// Log returns the fired-event records sorted by schedule index — the
// replayable fault log: two runs of the same (seed, schedule) that fired the
// same events produce equal logs.
func (e *Engine) Log() []Record {
	e.mu.Lock()
	out := append([]Record(nil), e.log...)
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}
