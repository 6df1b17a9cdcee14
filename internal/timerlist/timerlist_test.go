package timerlist

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestManualFireOrder(t *testing.T) {
	l := NewManual()
	defer l.Close()
	base := time.Now()
	var order []int
	var mu sync.Mutex
	add := func(i int, d time.Duration) {
		l.Schedule(base.Add(d), func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	add(3, 30*time.Millisecond)
	add(1, 10*time.Millisecond)
	add(2, 20*time.Millisecond)

	if n := l.CheckNow(base.Add(5 * time.Millisecond)); n != 0 {
		t.Errorf("fired %d early", n)
	}
	if n := l.CheckNow(base.Add(25 * time.Millisecond)); n != 2 {
		t.Errorf("fired %d, want 2", n)
	}
	if n := l.CheckNow(base.Add(time.Second)); n != 1 {
		t.Errorf("fired %d, want 1", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestCancelPreventsFire(t *testing.T) {
	l := NewManual()
	defer l.Close()
	fired := false
	tm := l.After(-time.Millisecond, func() { fired = true })
	tm.Cancel()
	l.CheckNow(time.Now())
	if fired {
		t.Error("cancelled timer fired")
	}
	s, f := l.Stats()
	if s != 1 || f != 0 {
		t.Errorf("stats = %d scheduled, %d fired", s, f)
	}
}

func TestBackgroundFires(t *testing.T) {
	l := New(5 * time.Millisecond)
	defer l.Close()
	done := make(chan struct{})
	l.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("background timer never fired")
	}
}

func TestCloseStopsFiring(t *testing.T) {
	l := New(time.Millisecond)
	var fired atomic.Bool
	l.After(50*time.Millisecond, func() { fired.Store(true) })
	l.Close()
	time.Sleep(80 * time.Millisecond)
	if fired.Load() {
		t.Error("timer fired after Close")
	}
	l.Close() // idempotent
}

func TestFiredNeverExceedsScheduledProperty(t *testing.T) {
	// Property: whatever mix of schedule/cancel/check happens,
	// fired ≤ scheduled, and a cancelled timer never fires.
	f := func(ops []uint8) bool {
		l := NewManual()
		defer l.Close()
		base := time.Now()
		var timers []*Timer
		var cancelled []*atomic.Bool
		for i, op := range ops {
			switch op % 3 {
			case 0:
				flag := &atomic.Bool{}
				cancelled = append(cancelled, flag)
				fl := flag
				tm := l.Schedule(base.Add(time.Duration(op)*time.Millisecond), func() {
					if fl.Load() {
						t.Error("cancelled timer fired")
					}
				})
				timers = append(timers, tm)
			case 1:
				if len(timers) > 0 {
					j := i % len(timers)
					cancelled[j].Store(true)
					timers[j].Cancel()
				}
			case 2:
				l.CheckNow(base.Add(time.Duration(op) * time.Millisecond))
			}
		}
		l.CheckNow(base.Add(time.Hour))
		s, fd := l.Stats()
		return fd <= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapPopClearsSlot is the retention regression test: timerHeap.Pop
// must nil the vacated backing-array slot, or every popped *Timer (and the
// message/transaction state its closure pins) stays reachable until the
// slot is overwritten by a later push.
func TestHeapPopClearsSlot(t *testing.T) {
	var h timerHeap
	base := time.Now()
	for i := 0; i < 8; i++ {
		heap.Push(&h, &Timer{at: base.Add(time.Duration(i))})
	}
	for i := 0; i < 8; i++ {
		if tm := heap.Pop(&h).(*Timer); tm == nil {
			t.Fatal("popped nil timer")
		}
		// The slot just vacated is at the old length, still within the
		// backing array's capacity.
		if got := h[:len(h)+1][len(h)]; got != nil {
			t.Fatalf("pop %d left *Timer %p resident in the backing array", i, got)
		}
	}
}

// TestListPopReleasesThroughCheckNow covers the same retention bug at the
// List level: after firing, no slot of the heap's backing array may still
// reference a timer.
func TestListPopReleasesThroughCheckNow(t *testing.T) {
	l := NewManual()
	defer l.Close()
	base := time.Now()
	for i := 0; i < 16; i++ {
		l.Schedule(base.Add(time.Duration(i)*time.Millisecond), func() {})
	}
	if n := l.CheckNow(base.Add(time.Second)); n != 16 {
		t.Fatalf("fired %d, want 16", n)
	}
	for i, tm := range l.h[:cap(l.h)] {
		if tm != nil {
			t.Fatalf("backing array slot %d still references a fired timer", i)
		}
	}
}

// TestHeapCancelledResident pins the corpse accounting: cancels raise the
// count, ripening lowers it, and firing normally never touches it.
func TestHeapCancelledResident(t *testing.T) {
	l := NewManual()
	defer l.Close()
	base := time.Now()
	var tms []*Timer
	for i := 0; i < 10; i++ {
		tms = append(tms, l.Schedule(base.Add(time.Duration(i+1)*time.Millisecond), func() {}))
	}
	for _, tm := range tms[:4] {
		tm.Cancel()
		tm.Cancel() // idempotent: must not double-count
	}
	if got := l.CancelledResident(); got != 4 {
		t.Fatalf("CancelledResident = %d, want 4", got)
	}
	if n := l.CheckNow(base.Add(time.Second)); n != 6 {
		t.Errorf("fired %d, want 6", n)
	}
	if got := l.CancelledResident(); got != 0 {
		t.Errorf("CancelledResident after reap = %d, want 0", got)
	}
}

func TestConcurrentScheduleAndCheck(t *testing.T) {
	l := New(time.Millisecond)
	defer l.Close()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.After(time.Duration(i%5)*time.Millisecond, func() { fired.Add(1) })
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() < 400 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fired.Load() != 400 {
		t.Errorf("fired %d, want 400", fired.Load())
	}
}

// TestCancelReleasesCallback is the retention property for both
// implementations: once Cancel returns, nothing the callback closed over is
// reachable through the scheduler, even though the heap keeps the cancelled
// Timer resident until its deadline. The sentinel stands for the transaction
// and the messages a Timer B closure pins.
func TestCancelReleasesCallback(t *testing.T) {
	for _, impl := range []Impl{ImplHeap, ImplWheel} {
		t.Run(string(impl), func(t *testing.T) {
			s, err := NewScheduler(impl, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			collected := make(chan struct{})
			tm := func() *Timer {
				sentinel := new([64]byte)
				runtime.SetFinalizer(sentinel, func(*[64]byte) { close(collected) })
				return s.After(32*time.Second, func() { sentinel[0]++ })
			}()
			tm.Cancel()
			if impl == ImplHeap && s.Len() != 1 {
				t.Fatalf("heap Len = %d after Cancel, want the corpse still resident", s.Len())
			}
			deadline := time.After(5 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(tm) // the corpse itself was reachable all along
					return
				case <-deadline:
					t.Fatal("the cancelled timer's closure is still reachable")
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}

// TestCorpseBytes pins what the package doc promises about the heap policy:
// a cancelled timer awaiting its deadline costs the Timer and its heap
// slot, about 100 B, whatever its callback had captured.
func TestCorpseBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	l := NewManual()
	defer l.Close()
	const n = 100000
	l.h = make(timerHeap, 0, n) // the slots are counted apart from the slice's growth
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		payload := make([]byte, 1024)
		l.After(32*time.Second, func() { payload[0]++ }).Cancel()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := l.CancelledResident(); got != n {
		t.Fatalf("CancelledResident = %d, want %d", got, n)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f B per corpse (+8 B heap slot)", per)
	if per+8 > 128 {
		t.Errorf("a corpse costs %.0f B, want at most 128", per+8)
	}
}
