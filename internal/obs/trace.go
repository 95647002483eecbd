package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured protocol trace record: a point event (Dur == 0)
// or a span (Dur > 0). TS is unix nanoseconds so events serialize to
// compact JSONL and survive round-trips without timezone churn.
//
// Cat groups events by subsystem ("cycle", "phase", "flush", "peer", "chaos");
// Name is the specific event within the category. Cycle/Inst/Gen/Node are
// -1 when not applicable so that zero-valued ids stay distinguishable.
type Event struct {
	TS     int64  `json:"ts"`               // unix nanos
	Dur    int64  `json:"dur,omitempty"`    // span duration, nanos
	Cat    string `json:"cat"`              // subsystem
	Name   string `json:"name"`             // event name
	Cycle  int    `json:"cycle,omitempty"`  // flush cycle id, -1 if n/a
	Inst   int    `json:"inst,omitempty"`   // instance within cycle, -1 if n/a
	Gen    int    `json:"gen,omitempty"`    // generation, -1 if n/a
	Node   int    `json:"node,omitempty"`   // node/processor id, -1 if n/a
	Detail string `json:"detail,omitempty"` // free-form annotation
}

// Tracer records Events into a bounded ring buffer, optionally teeing each
// event to a JSONL sink. A disabled tracer costs exactly one atomic load
// and a branch per Emit call; nil tracers are safe everywhere. When the
// ring is full the oldest event is dropped and the drop counter advances —
// Events always returns the most recent writes in order.
type Tracer struct {
	enabled atomic.Bool
	dropped atomic.Int64

	mu   sync.Mutex
	ring []Event
	next int  // next write slot
	full bool // ring has wrapped at least once
	sink io.Writer
	enc  *json.Encoder
}

// DefaultTraceRing is the ring capacity used when NewTracer gets size <= 0.
const DefaultTraceRing = 4096

// NewTracer returns a tracer with a ring of the given capacity
// (DefaultTraceRing if size <= 0). If sink is non-nil every emitted event
// is also encoded to it as one JSON line. The tracer starts disabled.
func NewTracer(size int, sink io.Writer) *Tracer {
	if size <= 0 {
		size = DefaultTraceRing
	}
	t := &Tracer{ring: make([]Event, size), sink: sink}
	if sink != nil {
		t.enc = json.NewEncoder(sink)
	}
	return t
}

// SetEnabled turns event recording on or off.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// Enabled reports whether Emit records anything. This is the one branch a
// disabled tracer costs on the hot path.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Emit records e. If e.TS is zero it is stamped with the current time.
// No-op when the tracer is nil or disabled.
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	if e.TS == 0 {
		e.TS = time.Now().UnixNano()
	}
	t.mu.Lock()
	if t.full {
		t.dropped.Add(1)
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	if t.enc != nil {
		t.enc.Encode(e) // best-effort: a broken sink must not fail the protocol
	}
	t.mu.Unlock()
}

// Span emits a span event for work that started at t0, stamping TS with
// the start time and Dur with time-since.
func (t *Tracer) Span(t0 time.Time, e Event) {
	if !t.Enabled() {
		return
	}
	e.TS = t0.UnixNano()
	e.Dur = int64(time.Since(t0))
	t.Emit(e)
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped returns how many events were overwritten because the ring was
// full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}
