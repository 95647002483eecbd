package main

import (
	"math"
	"time"
)

// sliceLen is the target length of one slice of a measure window.
//
// The host this benchmark was sized on slows the program down in bursts of
// one to sixty seconds (another tenant on the same core), never speeds it
// up, and a tail percentile over a whole window lands inside those bursts.
// So each window is cut into slices, every slice yields its own throughput,
// median and p90, and a run reports the quiet quartile of its slices: the
// value a quarter of the way from the best slice to the worst. A change to
// the program moves every slice, the quiet ones included; a burst on the host
// moves only the slices it hits. README.md has the numbers.
const sliceLen = 2 * time.Second

// valueRec is one value of the measure window as the collector saw it.
type valueRec struct {
	latMs float64
	ok    bool // decided, not defaulted, bytes equal to the proposal
}

// served reports whether the value counts toward the open loop's rate: decided
// correctly within the latency limit.
func (r valueRec) served() bool { return r.ok && r.latMs <= float64(openLimit)/1e6 }

// burstRec is one closed-loop burst: first submit to last decision.
type burstRec struct{ start, end time.Time }

// Slice is the timed metrics of one slice of a measure window.
type Slice struct {
	ValuesPerS float64 `json:"values_per_s"`
	P50Ms      float64 `json:"decision_p50_ms"`
	P90Ms      float64 `json:"decision_p90_ms"`
	Samples    int     `json:"samples"`
}

// sliceWindow cuts the window's values, which are in submission order, into
// round(window/sliceLen) runs of equal count. A closed loop is cut at burst
// boundaries (bursts is then non-empty, each of w.Burst() values) and a
// slice's time runs from its first submit to its last decision; the open
// loop's arrivals are evenly spaced, so equal counts are equal times.
func sliceWindow(w Workload, window time.Duration, recs []valueRec, bursts []burstRec) []Slice {
	k := max(1, int(math.Round(float64(window)/float64(sliceLen))))
	units, per := len(recs), 1 // what is dealt out to slices, and values per unit
	if len(bursts) > 0 {
		units, per = len(bursts), w.Burst()
	}
	k = min(k, units)
	var out []Slice
	for j := 0; j < k; j++ {
		lo, hi := j*units/k, (j+1)*units/k
		part := recs[lo*per : hi*per]
		elapsed := window.Seconds() / float64(k)
		if len(bursts) > 0 {
			elapsed = bursts[hi-1].end.Sub(bursts[lo].start).Seconds()
		}
		var lat []float64
		good := 0
		for _, r := range part {
			if r.ok {
				lat = append(lat, r.latMs)
			}
			if r.ok && (w.OpenRate == 0 || r.served()) { // only the open loop has a latency limit
				good++
			}
		}
		out = append(out, Slice{ValuesPerS: float64(good) / elapsed, P50Ms: percentile(lat, 0.50),
			P90Ms: percentile(lat, 0.90), Samples: len(part)})
	}
	return out
}

// quietQuartile is the value a quarter of the way from the best of xs to the
// worst (nearest rank): the 25th percentile where lower is better, its mirror
// where higher is.
func quietQuartile(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(0.25*float64(len(s)))) - 1
	if better == "higher" {
		i = len(s) - 1 - i
	}
	return s[i]
}

// quietQuartiles reduces slices to the three timed end-to-end metrics.
func quietQuartiles(sl []Slice) (valuesPerS, p50Ms, p90Ms float64) {
	var v, a, b []float64
	for _, s := range sl {
		v, a, b = append(v, s.ValuesPerS), append(a, s.P50Ms), append(b, s.P90Ms)
	}
	return quietQuartile(v, "higher"), quietQuartile(a, "lower"), quietQuartile(b, "lower")
}
