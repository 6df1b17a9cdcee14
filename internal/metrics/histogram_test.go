package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, 1, 2, 3, 1000, 1024, 5 * time.Millisecond} {
		h.Record(d)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if s.Max != 5*time.Millisecond {
		t.Fatalf("Max = %v, want 5ms", s.Max)
	}
	wantSum := time.Duration(0 + 1 + 2 + 3 + 1000 + 1024 + int64(5*time.Millisecond))
	if s.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
	// Bucket placement: 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2.
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 2 {
		t.Fatalf("low buckets = %v %v %v, want 1 1 2", s.Buckets[0], s.Buckets[1], s.Buckets[2])
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second) // must not panic
	h.Merge(&Histogram{})
	(&Histogram{}).Merge(h)
	if h.Count() != 0 {
		t.Fatal("nil histogram should count 0")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatal("nil snapshot should be all zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Buckets[0] != 1 || s.Sum != 0 {
		t.Fatalf("negative duration not clamped to zero: %+v", s)
	}
}

// TestQuantileAccuracy verifies the bucketed quantile against the exact
// order statistic: the histogram answer must bracket the true value within
// one power of two (and never exceed the observed max).
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~1µs…100ms, the range real stages produce.
		d := time.Duration(float64(time.Microsecond) * float64(uint64(1)<<uint(rng.Intn(17))) * (1 + rng.Float64()))
		samples = append(samples, d)
		h.Record(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.50, 0.95, 0.99, 1.0} {
		idx := int(float64(len(samples))*q+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		exact := samples[idx]
		got := s.Quantile(q)
		if got < exact/2 {
			t.Errorf("q=%v: histogram %v below half the exact %v", q, got, exact)
		}
		if got > 2*exact {
			t.Errorf("q=%v: histogram %v above twice the exact %v", q, got, exact)
		}
		if got > s.Max {
			t.Errorf("q=%v: histogram %v exceeds max %v", q, got, s.Max)
		}
	}
}

func TestHistogramMergeAndSub(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(time.Duration(i) * time.Microsecond)
		b.Record(time.Duration(i) * time.Millisecond)
	}
	prev := a.Snapshot()
	a.Merge(&b)
	s := a.Snapshot()
	if s.Count != 200 {
		t.Fatalf("merged Count = %d, want 200", s.Count)
	}
	if s.Max != b.Snapshot().Max {
		t.Fatalf("merged Max = %v, want %v", s.Max, b.Snapshot().Max)
	}
	diff := s.Sub(prev)
	bs := b.Snapshot()
	if diff.Count != bs.Count || diff.Sum != bs.Sum {
		t.Fatalf("Sub: got count=%d sum=%v, want count=%d sum=%v", diff.Count, diff.Sum, bs.Count, bs.Sum)
	}
	if diff.Buckets != bs.Buckets {
		t.Fatal("Sub buckets do not match the second histogram")
	}
}

// TestHistogramConcurrent exercises Record/Merge/Snapshot from many
// goroutines at once; run under -race this is the lock-freedom proof.
func TestHistogramConcurrent(t *testing.T) {
	var h, other Histogram
	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(rng.Intn(1 << 20)))
			}
		}(int64(w))
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			other.Record(time.Duration(i))
			h.Merge(&other)
		}
	}()
	go func() {
		defer wg.Done()
		// Concurrent snapshots race with in-flight Record/Merge calls, so
		// no exact invariant holds mid-run; under -race this goroutine is
		// the proof that Snapshot is safe alongside writers.
		for i := 0; i < 500; i++ {
			_ = h.Snapshot()
		}
	}()
	wg.Wait()
	// Quiescent now: every record must be present and internally consistent.
	final := h.Snapshot()
	if final.Count < writers*perG {
		t.Fatalf("lost records: %d < %d", final.Count, writers*perG)
	}
	var cum int64
	for _, n := range final.Buckets {
		cum += n
	}
	if cum != final.Count {
		t.Fatalf("quiescent bucket total %d != count %d", cum, final.Count)
	}
}

func TestProfileHistogramRegistryAndReport(t *testing.T) {
	p := NewProfile()
	h := p.Histogram("stage.test")
	if p.Histogram("stage.test") != h {
		t.Fatal("registry returned a different histogram for the same name")
	}
	h.Record(3 * time.Millisecond)
	p.SetGauge("test.gauge", func() float64 { return 42 })
	snap := p.Snapshot()
	if snap.Histograms["stage.test"].Count != 1 {
		t.Fatal("snapshot missing histogram")
	}
	if snap.Gauges["test.gauge"] != 42 {
		t.Fatal("snapshot missing gauge")
	}
	rep := snap.Report(0)
	for _, want := range []string{"stage.test", "p99=", "test.gauge", "42"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRegisterStandard(t *testing.T) {
	p := NewProfile()
	p.RegisterStandard()
	snap := p.Snapshot()
	for _, n := range standardCounters {
		if _, ok := snap.Counters[n]; !ok {
			t.Errorf("standard counter %q not pre-registered", n)
		}
	}
	for _, n := range standardTimers {
		if _, ok := snap.Timers[n]; !ok {
			t.Errorf("standard timer %q not pre-registered", n)
		}
	}
	for _, n := range StageNames {
		if _, ok := snap.Histograms[n]; !ok {
			t.Errorf("stage histogram %q not pre-registered", n)
		}
	}
	if _, ok := snap.Gauges[GaugeMsgPoolOutstanding]; !ok {
		t.Errorf("gauge %q not pre-registered", GaugeMsgPoolOutstanding)
	}
	if got := promName(GaugeMsgPoolOutstanding); got != "gosip_msg_pool_outstanding" {
		t.Errorf("exported as %q", got)
	}
}
