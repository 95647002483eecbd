// Package obs is the runtime observability core: zero-allocation,
// atomics-based counters, gauges and log-scale histograms collected in a
// Registry, plus a structured protocol event tracer (see trace.go).
//
// The package measures *time* where internal/metrics measures *bits*: the
// bit meter validates the paper's communication-complexity formulas, the
// obs registry tells you where a flush cycle's wall-clock goes and how
// long a proposal waits from Propose to decision.
//
// Every record path is a handful of atomic operations — safe for
// concurrent use from protocol hot paths without locks and without
// allocating. Registration (Registry.Counter and friends) takes a lock
// and is meant for setup; callers cache the returned pointer.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depth, open connections, ...).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (negative to decrement).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per power of two: bucket k holds values v with
// bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k). Bucket 0 holds v <= 0.
// 65 buckets cover the full non-negative int64 range.
const histBuckets = 65

// Histogram is a fixed-bucket log-scale histogram. Record costs three
// atomic adds plus a bounded CAS loop for the max — no locks, no
// allocation. Quantiles reported by Snapshot are bucket upper bounds clamped
// to the exact maximum, so they overestimate by at most 2x and never exceed
// Max; that is plenty to tell a 50µs decision path from a 5ms one, which is
// what the histogram is for.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// HistSnapshot is a point-in-time summary of a Histogram. P50/P90/P99 are
// log-bucket upper bounds clamped to Max (≤2x overestimates, never above
// the largest sample); Max is exact. The bucket
// counts ride along unexported so snapshots of the same metric from several
// registries merge into real quantiles (Snapshot.Merge).
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P90   int64 `json:"p90"`
	P99   int64 `json:"p99"`

	buckets [histBuckets]int64
}

// Snapshot summarizes the histogram. It is safe to call while other
// goroutines record; the result is a consistent-enough view (counts may
// trail the bucket sums by in-flight records, never the reverse by more
// than the races inherent in lock-free reads).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range s.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.Count += s.buckets[i]
	}
	s.setQuantiles()
	return s
}

// setQuantiles derives P50/P90/P99 from the bucket counts and Count,
// clamped to Max: a bucket's upper bound can lie above every sample in it.
func (s *HistSnapshot) setQuantiles() {
	s.P50 = min(quantile(&s.buckets, s.Count, 50), s.Max)
	s.P90 = min(quantile(&s.buckets, s.Count, 90), s.Max)
	s.P99 = min(quantile(&s.buckets, s.Count, 99), s.Max)
}

// quantile returns the upper bound of the bucket containing the q-th
// percentile observation (rank ceil(q/100 * total)).
func quantile(counts *[histBuckets]int64, total, q int64) int64 {
	if total == 0 {
		return 0
	}
	rank := (total*q + 99) / 100
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// bucketUpper is the largest value bucket k can hold: 2^k - 1 (0 for k=0).
func bucketUpper(k int) int64 {
	if k <= 0 {
		return 0
	}
	if k >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<k - 1
}

// Registry is a named collection of metrics. Get-or-create registration
// takes a lock; record paths on the returned metrics are lock-free.
// Func registers a live read-through gauge for values owned elsewhere
// (transport stats, engine counters) so one exposition covers them all.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it if new.
// A nil registry returns nil (all metric methods are nil-safe no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// new.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers fn as a read-through gauge under name; each Snapshot or
// WriteText call invokes it for a live value. Re-registering replaces the
// previous function.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of every metric in a Registry.
// Read-through Func gauges appear in Gauges.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.RUnlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	return s
}

// WriteText writes the registry in a flat, sorted, Prometheus-style text
// exposition: one "name value" line per scalar, histograms expanded to
// name_count / name_sum / name_max / name_p50 / name_p90 / name_p99.
func (r *Registry) WriteText(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// Merge folds other into s: counters and gauges sum, and histograms add
// their log-scale buckets, counts and sums, keep the larger max, and
// recompute the quantiles from the summed buckets — the merged P50/P90/P99
// are what one histogram fed every source's samples would report. Merging
// lets a sharded service aggregate its per-shard registries into one view.
func (s Snapshot) Merge(other Snapshot) {
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] += v
	}
	for k, h := range other.Histograms {
		d := s.Histograms[k]
		d.Count += h.Count
		d.Sum += h.Sum
		d.Max = max(d.Max, h.Max)
		for i, c := range h.buckets {
			d.buckets[i] += c
		}
		d.setQuantiles()
		s.Histograms[k] = d
	}
}

// WriteText writes the snapshot in the registry's text exposition format:
// one "name value" line per metric, sorted by name.
func (s Snapshot) WriteText(w io.Writer) error {
	snap := s
	lines := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+6*len(snap.Histograms))
	for k, v := range snap.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range snap.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, h := range snap.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d", k, h.Count),
			fmt.Sprintf("%s_sum %d", k, h.Sum),
			fmt.Sprintf("%s_max %d", k, h.Max),
			fmt.Sprintf("%s_p50 %d", k, h.P50),
			fmt.Sprintf("%s_p90 %d", k, h.P90),
			fmt.Sprintf("%s_p99 %d", k, h.P99),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
