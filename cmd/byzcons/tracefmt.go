package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"byzcons"
)

// tracefmt pretty-prints a protocol trace captured as JSONL (-tracefile or
// the /events debug page): one span tree per flush cycle — the cycle span as
// the root, its phase spans indented beneath it with offsets
// from the cycle start — and the remaining events (flush triggers, peer
// lifecycle) chronologically between the trees.
func tracefmt(w io.Writer, r io.Reader) error {
	var events []byzcons.TraceEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev byzcons.TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("tracefmt: line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "tracefmt: no events")
		return nil
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	t0 := events[0].TS

	// Children (phase spans) group under their cycle's root span; everything else prints at top level in time order.
	children := make(map[int][]byzcons.TraceEvent)
	var top []byzcons.TraceEvent
	for _, ev := range events {
		if ev.Cat == "phase" {
			children[ev.Cycle] = append(children[ev.Cycle], ev)
		} else {
			top = append(top, ev)
		}
	}

	off := func(base, ts int64) string {
		return fmt.Sprintf("+%8.2fms", float64(ts-base)/float64(time.Millisecond))
	}
	for _, ev := range top {
		if ev.Cat == "cycle" {
			fmt.Fprintf(w, "%s cycle %d  %s  %v  %s\n",
				off(t0, ev.TS), ev.Cycle, ev.Name, time.Duration(ev.Dur), ev.Detail)
			for _, ch := range children[ev.Cycle] {
				fmt.Fprintf(w, "  %s %-12s gen=%-3d node=%d  %v  %s\n",
					off(ev.TS, ch.TS), ch.Name, ch.Gen, ch.Node, time.Duration(ch.Dur), ch.Detail)
			}
			delete(children, ev.Cycle)
			continue
		}
		fmt.Fprintf(w, "%s %s/%s", off(t0, ev.TS), ev.Cat, ev.Name)
		if ev.Cat == "peer" {
			fmt.Fprintf(w, " peer=%d", ev.Node)
		}
		if ev.Detail != "" {
			fmt.Fprintf(w, "  %s", ev.Detail)
		}
		fmt.Fprintln(w)
	}
	// Orphans: children whose cycle span never landed in the trace (ring
	// overflow, or a run cut mid-cycle). Surface rather than drop them.
	var orphanCycles []int
	for c := range children {
		orphanCycles = append(orphanCycles, c)
	}
	sort.Ints(orphanCycles)
	for _, c := range orphanCycles {
		fmt.Fprintf(w, "cycle %d (span not captured):\n", c)
		for _, ch := range children[c] {
			fmt.Fprintf(w, "  %s %-12s gen=%-3d node=%d  %v  %s\n",
				off(t0, ch.TS), ch.Name, ch.Gen, ch.Node, time.Duration(ch.Dur), ch.Detail)
		}
	}
	return nil
}
