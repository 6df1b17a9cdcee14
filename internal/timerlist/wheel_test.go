package timerlist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newManualWheel(tick time.Duration) *Wheel {
	return NewWheel(Options{Tick: tick, Shards: 4})
}

// firedSet records which timer indices fired, and at which CheckNow time.
type firedSet struct {
	mu    sync.Mutex
	fired map[int]time.Time
	now   time.Time // the CheckNow argument currently being processed
}

func newFiredSet() *firedSet { return &firedSet{fired: map[int]time.Time{}} }

func (f *firedSet) callback(i int) func() {
	return func() {
		f.mu.Lock()
		f.fired[i] = f.now
		f.mu.Unlock()
	}
}

func (f *firedSet) has(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.fired[i]
	return ok
}

// TestWheelHeapParity pins the wheel to the heap's firing semantics:
// randomized schedules and cancels applied identically to both, checked at
// increasing times. Invariants: neither fires before a deadline, neither
// fires a cancelled timer, the wheel never fires something the heap has
// not (it may only defer by its tick coarseness), and once time moves past
// every deadline the two fired sets are exactly equal (order-insensitive).
func TestWheelHeapParity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 5; round++ {
		heapSched := NewManual()
		wheel := newManualWheel(time.Millisecond)

		base := time.Now()
		const n = 400
		deadlines := make([]time.Time, n)
		hFired, wFired := newFiredSet(), newFiredSet()
		cancelled := map[int]bool{}
		hTimers := make([]*Timer, n)
		wTimers := make([]*Timer, n)
		for i := 0; i < n; i++ {
			deadlines[i] = base.Add(time.Duration(rng.Int63n(int64(2 * time.Second))))
			hTimers[i] = heapSched.Schedule(deadlines[i], hFired.callback(i))
			wTimers[i] = wheel.Schedule(deadlines[i], wFired.callback(i))
		}

		checkpoints := []time.Duration{
			100 * time.Millisecond, 400 * time.Millisecond, 900 * time.Millisecond,
			1500 * time.Millisecond, time.Hour,
		}
		for _, cp := range checkpoints {
			// Cancel a few timers neither scheduler has fired yet, so both
			// treat them identically from here on.
			for k := 0; k < 20; k++ {
				i := rng.Intn(n)
				if cancelled[i] || hFired.has(i) || wFired.has(i) {
					continue
				}
				cancelled[i] = true
				hTimers[i].Cancel()
				wTimers[i].Cancel()
			}
			now := base.Add(cp)
			hFired.now, wFired.now = now, now
			heapSched.CheckNow(now)
			wheel.CheckNow(now)

			for i := 0; i < n; i++ {
				if cancelled[i] && (hFired.has(i) || wFired.has(i)) {
					// Cancelled strictly before either fired it.
					t.Fatalf("round %d: cancelled timer %d fired", round, i)
				}
				if wFired.has(i) && !hFired.has(i) {
					t.Fatalf("round %d: wheel fired %d (deadline %v) before heap at %v",
						round, i, deadlines[i].Sub(base), cp)
				}
				if hFired.has(i) && hFired.fired[i].Before(deadlines[i]) {
					t.Fatalf("round %d: heap fired %d early", round, i)
				}
				if wFired.has(i) && wFired.fired[i].Before(deadlines[i]) {
					t.Fatalf("round %d: wheel fired %d early", round, i)
				}
			}
		}

		// Quiescence: both fired exactly the uncancelled set.
		for i := 0; i < n; i++ {
			want := !cancelled[i]
			if hFired.has(i) != want || wFired.has(i) != want {
				t.Fatalf("round %d: timer %d fired heap=%v wheel=%v cancelled=%v",
					round, i, hFired.has(i), wFired.has(i), cancelled[i])
			}
		}
		hs, hf := heapSched.Stats()
		ws, wf := wheel.Stats()
		if hs != n || ws != n || hf != wf {
			t.Fatalf("round %d: stats heap=%d/%d wheel=%d/%d", round, hs, hf, ws, wf)
		}
		heapSched.Close()
		wheel.Close()
	}
}

// TestWheelReclaimsOnCancel is the policy difference stated as a test: a
// cancelled heap timer stays resident until its deadline ripens, a
// cancelled wheel timer vacates its slot immediately.
func TestWheelReclaimsOnCancel(t *testing.T) {
	heapSched := NewManual()
	wheel := newManualWheel(time.Millisecond)
	defer heapSched.Close()
	defer wheel.Close()

	base := time.Now()
	const k = 1000
	var timers []*Timer
	for i := 0; i < k; i++ {
		at := base.Add(time.Hour)
		timers = append(timers, heapSched.Schedule(at, func() {}), wheel.Schedule(at, func() {}))
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if got := heapSched.Len(); got != k {
		t.Errorf("heap Len after cancel = %d, want %d (corpses resident)", got, k)
	}
	if got := heapSched.CancelledResident(); got != k {
		t.Errorf("heap CancelledResident = %d, want %d", got, k)
	}
	if got := wheel.Len(); got != 0 {
		t.Errorf("wheel Len after cancel = %d, want 0 (slots reclaimed)", got)
	}
	if got := wheel.CancelledResident(); got != 0 {
		t.Errorf("wheel CancelledResident = %d, want 0", got)
	}

	// Once the deadlines ripen the heap reaps its corpses without firing.
	if n := heapSched.CheckNow(base.Add(2 * time.Hour)); n != 0 {
		t.Errorf("heap fired %d cancelled timers", n)
	}
	if n := wheel.CheckNow(base.Add(2 * time.Hour)); n != 0 {
		t.Errorf("wheel fired %d cancelled timers", n)
	}
	if got := heapSched.CancelledResident(); got != 0 {
		t.Errorf("heap CancelledResident after reap = %d, want 0", got)
	}
	if got := heapSched.Len(); got != 0 {
		t.Errorf("heap Len after reap = %d", got)
	}
}

// TestWheelCascade exercises deadlines that start in levels 1 and 2 and
// must cascade down before firing, including a beyond-horizon deadline
// that re-parks in the farthest slot.
func TestWheelCascade(t *testing.T) {
	w := newManualWheel(time.Millisecond)
	defer w.Close()
	base := time.Now()

	var fired [4]atomic.Bool
	spots := []time.Duration{
		50 * time.Millisecond, // level 0
		3 * time.Second,       // level 1
		2 * time.Minute,       // level 2
		5 * time.Hour,         // beyond the 1ms-tick horizon (~4.6h): re-parks
	}
	for i, d := range spots {
		i := i
		w.Schedule(base.Add(d), func() { fired[i].Store(true) })
	}
	for i, d := range spots {
		if w.CheckNow(base.Add(d - time.Millisecond)); fired[i].Load() {
			t.Fatalf("timer %d fired before its deadline", i)
		}
		w.CheckNow(base.Add(d + 2*time.Millisecond))
		if !fired[i].Load() {
			t.Fatalf("timer %d did not fire after its deadline", i)
		}
	}
	if got := w.Len(); got != 0 {
		t.Errorf("Len after all fired = %d", got)
	}
}

// TestWheelConcurrentScheduleCancelCheck churns all three operations from
// multiple goroutines; the race detector owns the assertions, plus the
// core invariant that fired ≤ scheduled and cancelled timers never fire.
func TestWheelConcurrentScheduleCancelCheck(t *testing.T) {
	w := NewWheel(Options{Interval: time.Millisecond, Shards: 4, Tick: time.Millisecond})
	defer w.Close()
	var fired atomic.Int64
	var cancelledFired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				cancelFlag := &atomic.Bool{}
				tm := w.After(time.Duration(rng.Intn(4))*time.Millisecond, func() {
					if cancelFlag.Load() {
						cancelledFired.Add(1)
					}
					fired.Add(1)
				})
				if rng.Intn(2) == 0 {
					cancelFlag.Store(true)
					tm.Cancel()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for w.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if cf := cancelledFired.Load(); cf != 0 {
		t.Errorf("%d cancelled timers fired", cf)
	}
	s, f := w.Stats()
	if f > s {
		t.Errorf("fired %d > scheduled %d", f, s)
	}
	if w.Len() != 0 {
		t.Errorf("Len = %d after drain", w.Len())
	}
}

// TestNewSchedulerSelectsImpl pins the policy plumbing: empty and "wheel"
// give the wheel, "heap" gives the paper's list, junk errors.
func TestNewSchedulerSelectsImpl(t *testing.T) {
	for _, impl := range []Impl{"", ImplWheel} {
		wh, err := NewScheduler(impl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := wh.(*Wheel); !ok {
			t.Errorf("impl %q = %T, want *Wheel", impl, wh)
		}
		wh.Close()
	}
	h, err := NewScheduler(ImplHeap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(*List); !ok {
		t.Errorf("heap impl = %T, want *List", h)
	}
	h.Close()
	if _, err := NewScheduler("calendar", Options{}); err == nil {
		t.Error("unknown impl did not error")
	}
}
