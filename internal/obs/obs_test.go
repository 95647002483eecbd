package obs

import (
	"bytes"
	"math/bits"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Each value must land in the bucket whose upper bound is the smallest
	// 2^k-1 >= v; a histogram holding only v must place every quantile in
	// that bucket, and report the quantile clamped to the exact max, v.
	cases := []struct {
		v    int64
		want int64
	}{
		{0, 0}, {-5, 0},
		{1, 1},
		{2, 3}, {3, 3},
		{4, 7}, {7, 7},
		{8, 15},
		{1023, 1023}, {1024, 2047}, {1025, 2047},
		{1 << 40, 1<<41 - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Record(c.v)
		s := h.Snapshot()
		if s.Count != 1 {
			t.Fatalf("Record(%d): count = %d, want 1", c.v, s.Count)
		}
		if b50, b99 := quantile(&s.buckets, s.Count, 50), quantile(&s.buckets, s.Count, 99); b50 != c.want || b99 != c.want {
			t.Errorf("Record(%d): p50 bucket bound %d, p99 bucket bound %d, want %d", c.v, b50, b99, c.want)
		}
		wantMax := c.v
		if wantMax < 0 {
			wantMax = 0
		}
		if s.Max != wantMax {
			t.Errorf("Record(%d): max = %d, want %d", c.v, s.Max, wantMax)
		}
		if s.P50 != wantMax || s.P99 != wantMax {
			t.Errorf("Record(%d): p50=%d p99=%d, want the clamp to max %d", c.v, s.P50, s.P99, wantMax)
		}
	}
}

func TestHistogramQuantileRanks(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("snapshot = %+v, want count=100 sum=5050 max=100", s)
	}
	// Rank 50 is value 50 -> bucket upper 63; rank 90 is value 90 -> 127;
	// rank 99 is value 99 -> 127. Upper bounds, never under-estimates, and
	// clamped to the max: 127 reads as 100.
	wantUpper := func(v int64) int64 { return min(int64(1)<<bits.Len64(uint64(v))-1, 100) }
	if s.P50 != wantUpper(50) {
		t.Errorf("p50 = %d, want %d", s.P50, wantUpper(50))
	}
	if s.P90 != wantUpper(90) {
		t.Errorf("p90 = %d, want %d", s.P90, wantUpper(90))
	}
	if s.P99 != wantUpper(99) {
		t.Errorf("p99 = %d, want %d", s.P99, wantUpper(99))
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > 2*s.Max {
		t.Errorf("quantiles not ordered/bounded: %+v", s)
	}
}

func TestHistogramConcurrentRecording(t *testing.T) {
	// Hammer one histogram from many goroutines while snapshotting
	// concurrently; under -race this doubles as the lock-freedom proof.
	var h Histogram
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.P50 > s.P99 {
				t.Errorf("mid-flight snapshot disordered: %+v", s)
				return
			}
		}
	}()
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func(seed int64) {
			defer rec.Done()
			for i := int64(0); i < per; i++ {
				h.Record(seed*1000 + i)
			}
		}(int64(w))
	}
	rec.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestRegistrySnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_cycles").Add(3)
	r.Gauge("engine_queue_depth").Set(7)
	r.Histogram("decision_ns").Record(100)
	r.Func("transport_conns", func() int64 { return 12 })

	s := r.Snapshot()
	if s.Counters["engine_cycles"] != 3 {
		t.Errorf("counter = %d, want 3", s.Counters["engine_cycles"])
	}
	if s.Gauges["engine_queue_depth"] != 7 {
		t.Errorf("gauge = %d, want 7", s.Gauges["engine_queue_depth"])
	}
	if s.Gauges["transport_conns"] != 12 {
		t.Errorf("func gauge = %d, want 12", s.Gauges["transport_conns"])
	}
	if s.Histograms["decision_ns"].Count != 1 {
		t.Errorf("hist count = %d, want 1", s.Histograms["decision_ns"].Count)
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"engine_cycles 3\n",
		"engine_queue_depth 7\n",
		"transport_conns 12\n",
		"decision_ns_count 1\n",
		"decision_ns_p99 100\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Deterministic: sorted lines.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("exposition not sorted at line %d: %q > %q", i, lines[i-1], lines[i])
		}
	}
}

// TestSnapshotMergeQuantiles pins that merged histograms report real
// quantiles: two registries fed disjoint ranges merge to what one registry
// fed both reports. Taking the larger of the two sources' quantiles (what
// Merge once did) puts the merged p50 at the slow source's millisecond.
func TestSnapshotMergeQuantiles(t *testing.T) {
	fast, slow, both := NewRegistry(), NewRegistry(), NewRegistry()
	for i := int64(0); i < 1000; i++ {
		fast.Histogram("decision_ns").Record(1000 + i%24)
		both.Histogram("decision_ns").Record(1000 + i%24)
	}
	for i := int64(0); i < 10; i++ {
		slow.Histogram("decision_ns").Record(1_000_000 + i)
		both.Histogram("decision_ns").Record(1_000_000 + i)
	}
	merged := fast.Snapshot()
	merged.Merge(slow.Snapshot())
	got, want := merged.Histograms["decision_ns"], both.Snapshot().Histograms["decision_ns"]
	if got != want {
		t.Errorf("merged histogram = %+v, want the single-registry %+v", got, want)
	}
	if slowP50 := slow.Snapshot().Histograms["decision_ns"].P50; got.P50 >= slowP50 || got.P99 >= slowP50 {
		t.Errorf("merged p50=%d p99=%d must stay in the fast range (1000 of 1010 samples), below the slow source's p50=%d",
			got.P50, got.P99, slowP50)
	}
	// A metric only one source has arrives intact.
	slow.Histogram("write_ns").Record(77)
	merged = fast.Snapshot()
	merged.Merge(slow.Snapshot())
	if got, want := merged.Histograms["write_ns"], slow.Snapshot().Histograms["write_ns"]; got != want {
		t.Errorf("one-sided merge = %+v, want %+v", got, want)
	}
}

// TestHistogramQuantilesNeverExceedMax: when every sample sits low in its
// log bucket, the bucket's upper bound lies far above all of them — 12ms
// falls in the bucket ending at 16.78ms — and the quantiles must read the
// exact max instead, in a snapshot and after a merge.
func TestHistogramQuantilesNeverExceedMax(t *testing.T) {
	const v = 12_000_000 // 12ms in ns
	a, b := NewRegistry(), NewRegistry()
	for i := 0; i < 50; i++ {
		a.Histogram("decision_ns").Record(v)
		b.Histogram("decision_ns").Record(v)
	}
	s := a.Snapshot()
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	for what, h := range map[string]HistSnapshot{"snapshot": s.Histograms["decision_ns"], "merge": merged.Histograms["decision_ns"]} {
		if h.Max != v || h.P50 != h.Max || h.P90 != h.Max || h.P99 != h.Max {
			t.Errorf("%s: p50=%d p90=%d p99=%d max=%d, want every quantile == max == %d", what, h.P50, h.P90, h.P99, h.Max, v)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Record(1)
	r.Func("f", func() int64 { return 0 })
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot non-empty")
	}
	var tr *Tracer
	tr.Emit(Event{Cat: "x", Name: "y"})
	if tr.Enabled() || tr.Dropped() != 0 || tr.Events() != nil {
		t.Errorf("nil tracer not inert")
	}
}
