package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed interval of the harness: a call, or a batch of calls,
// into a layer of the program. Times are offsets from the child's start.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = top level
	Burst  int           `json:"burst"`  // the flush cycle the span belongs to, -1 for none
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s Span) Dur() time.Duration { return s.End - s.Start }

// spanLog keeps spans in memory until the run ends. It is filled from one
// goroutine at a time (the child's main goroutine, after the loops stopped).
type spanLog struct {
	t0    time.Time
	spans []Span
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, burst int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, Span{ID: id, Parent: parent, Burst: burst, Name: name,
		Start: start.Sub(l.t0), End: end.Sub(l.t0)})
	return id
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover; overlapping children count once.
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var cover time.Duration
		edge := s.Start // everything before edge is already counted
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.Dur() - cover
	}
	return self
}

// traceEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes one process row per entry of byProc. Spans nest by
// time on one thread row per depth, so a viewer shows the parent/child tree.
func writeChromeTrace(path string, byProc map[string][]Span) error {
	events := []traceEvent{}
	for pid, name := range sortedKeys(byProc) {
		spans := byProc[name]
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": name}})
		self := selfTimes(spans)
		depth := make(map[int]int, len(spans))
		for _, s := range spans { // parents precede children in the log
			depth[s.ID] = depth[s.Parent] + 1
			events = append(events, traceEvent{
				Name: s.Name, Ph: "X", Pid: pid + 1, Tid: depth[s.ID],
				Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "burst": s.Burst,
					"self_us": float64(self[s.ID]) / 1e3},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
