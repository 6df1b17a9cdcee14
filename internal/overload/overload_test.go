package overload

import (
	"math"
	"testing"
	"time"

	"gosip/internal/metrics"
)

func newCtrl(t *testing.T, cfg Config, workers int, pending func() int) (*Controller, *metrics.Profile) {
	t.Helper()
	prof := metrics.NewProfile()
	return New(cfg, workers, pending, prof), prof
}

func TestNoneAdmitsEverything(t *testing.T) {
	c, prof := newCtrl(t, Config{Policy: PolicyNone}, 4, func() int { return 1 << 20 })
	for i := 0; i < 100; i++ {
		ok, _ := c.Admit(1 << 20)
		if !ok {
			t.Fatal("none policy rejected a request")
		}
	}
	s := prof.Snapshot()
	if s.Counters[metrics.MetricOverloadOffered] != 100 || s.Counters[metrics.MetricOverloadAdmitted] != 100 {
		t.Fatalf("counters: offered=%d admitted=%d, want 100/100",
			s.Counters[metrics.MetricOverloadOffered], s.Counters[metrics.MetricOverloadAdmitted])
	}
	if c.Active() {
		t.Fatal("none policy reports Active")
	}
}

func TestThresholdPendingBudget(t *testing.T) {
	pending := 0
	c, prof := newCtrl(t, Config{Policy: PolicyThreshold, MaxPending: 8, RetryAfter: time.Second},
		4, func() int { return pending })

	if ok, _ := c.Admit(0); !ok {
		t.Fatal("rejected while idle")
	}
	pending = 8
	ok, ra := c.Admit(0)
	if ok {
		t.Fatal("admitted past the pending budget")
	}
	if ra < time.Second {
		t.Fatalf("Retry-After %v below the configured base", ra)
	}
	// Deeper overload advertises a longer (but capped) back-off.
	pending = 100
	_, ra2 := c.Admit(0)
	if ra2 <= ra || ra2 > 4*time.Second {
		t.Fatalf("Retry-After scaling: shallow=%v deep=%v", ra, ra2)
	}
	s := prof.Snapshot()
	if s.Counters[metrics.MetricOverloadRejected] != 2 {
		t.Fatalf("rejected counter = %d, want 2", s.Counters[metrics.MetricOverloadRejected])
	}
	if s.Histograms[metrics.StageRetryAfter].Count != 2 {
		t.Fatalf("retry-after histogram count = %d, want 2", s.Histograms[metrics.StageRetryAfter].Count)
	}
}

func TestThresholdQueueBudget(t *testing.T) {
	c, _ := newCtrl(t, Config{Policy: PolicyThreshold, MaxPending: 1 << 20, MaxQueue: 4}, 4, nil)
	if ok, _ := c.Admit(3); !ok {
		t.Fatal("rejected below the queue budget")
	}
	if ok, _ := c.Admit(4); ok {
		t.Fatal("admitted at the queue budget")
	}
}

func TestOccupancyAdaptsDown(t *testing.T) {
	c, _ := newCtrl(t, Config{
		Policy:          PolicyOccupancy,
		TargetOccupancy: 0.5,
		window:          time.Millisecond,
	}, 1, nil)

	// Report far more busy time than one worker has wall time: occupancy
	// >> target, so each window multiplies the admission fraction down
	// until it hits the floor.
	for i := 0; i < 50; i++ {
		c.Observe(100 * time.Millisecond)
		time.Sleep(2 * time.Millisecond)
		c.Decide(0) // rolls the window
	}
	if f := c.AdmitFraction(); f > 0.2 {
		t.Fatalf("admission fraction %v did not adapt down under overload", f)
	}

	// An idle stretch (no Observe calls) must recover the fraction.
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		c.Decide(0)
	}
	if f := c.AdmitFraction(); f < 0.9 {
		t.Fatalf("admission fraction %v did not recover when idle", f)
	}
}

func TestOccupancyRejectsProportionally(t *testing.T) {
	c, _ := newCtrl(t, Config{Policy: PolicyOccupancy, window: time.Hour}, 1, nil)
	// Pin the fraction at the floor and check the admit rate tracks it.
	c.admitBits.Store(math.Float64bits(0.05))
	admitted := 0
	for i := 0; i < 2000; i++ {
		if ok, _ := c.Decide(0); ok {
			admitted++
		}
	}
	if admitted < 40 || admitted > 300 {
		t.Fatalf("admitted %d of 2000 at fraction 0.05; want roughly 100", admitted)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{250 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{4 * time.Second, 4},
	}
	for _, tc := range cases {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults(8)
	if cfg.Policy != PolicyNone || cfg.MaxPending != 32 || cfg.MaxQueue != 64 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.TargetOccupancy != 0.85 || cfg.RetryAfter != time.Second {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}
