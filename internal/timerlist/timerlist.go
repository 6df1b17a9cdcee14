// Package timerlist implements the retransmission timer subsystem that
// OpenSER's dedicated timer process manages (Ram et al. §3.2): when a
// stateful proxy sends a message over an unreliable transport it arms a
// timer; the timer process periodically walks the shared list and fires
// expired timers, which retransmit unacknowledged SIP messages.
//
// Two implementations stand behind one Scheduler interface:
//
//   - Wheel ("wheel", see wheel.go; the default) is a sharded hierarchical
//     timing wheel with O(1) schedule and O(1) cancel that unlinks the
//     timer immediately: no corpses at all, and no global lock or log(n)
//     sift on the transaction hot path.
//   - List ("heap"; `sipproxyd -timer-impl heap`, and the baseline rows of
//     `sipexperiment -fig locks`) is the paper-faithful shape: a single
//     monotonic heap under one mutex, shared by every worker. Cancellation
//     only marks the timer; the corpse stays resident in the heap until its
//     deadline ripens — the dead-timer churn Shen & Schulzrinne identify as
//     a first-order retransmission-timer cost. What a corpse costs is the
//     Timer itself and its heap slot, about 100 B: Cancel drops the
//     callback, so the corpse is hollow and pins nothing the callback
//     closed over (a transaction, its messages). That is still memory
//     proportional to the longest timer, not to the live state: a UDP
//     proxy cancels two timers per op, one of them the 32 s Timer B/F, and
//     under the benchmark's udp.calls load held 216k timers mid-run, 169k
//     of them corpses.
//
// Both count how long callers wait on their locks (when given a profile)
// so the serialization the paper talks about is observable, not inferred.
package timerlist

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/metrics"
)

// Impl names a timer-subsystem implementation.
type Impl string

// Available implementations.
const (
	ImplWheel Impl = "wheel" // sharded hierarchical timing wheel (default)
	ImplHeap  Impl = "heap"  // single-mutex global heap (paper-faithful)
)

// Scheduler is the timer subsystem the transaction layer drives. Both
// implementations satisfy it with identical firing semantics: CheckNow
// fires every uncancelled timer whose deadline has passed (the wheel may
// defer a fire by up to one tick — coarser, never earlier than the heap
// by more than scheduling skew), callbacks run outside all locks, and a
// cancelled timer never fires.
type Scheduler interface {
	// Schedule arms fn to run at (roughly) time at. The callback runs on
	// the goroutine calling CheckNow; it must not block for long.
	Schedule(at time.Time, fn func()) *Timer
	// After arms fn to run after d.
	After(d time.Duration, fn func()) *Timer
	// CheckNow fires every expired, uncancelled timer as of now and
	// returns how many fired.
	CheckNow(now time.Time) int
	// Len returns how many timers are resident (for the heap this
	// includes cancelled timers not yet reaped; the wheel reclaims on
	// cancel, so it counts live timers only).
	Len() int
	// Stats returns cumulative scheduled and fired counts; fired ≤
	// scheduled always holds.
	Stats() (scheduled, fired int64)
	// CancelledResident returns how many cancelled timers still occupy
	// the structure awaiting their deadline. Always 0 for the wheel — the
	// property the wheel policy exists to provide.
	CancelledResident() int64
	// Close stops the checking goroutine. Pending timers never fire after
	// Close returns.
	Close()
}

// Options configures a Scheduler.
type Options struct {
	// Interval is the background check period; 0 means no background
	// goroutine (the caller drives CheckNow, as tests do).
	Interval time.Duration
	// Shards is the wheel shard count (0 = GOMAXPROCS). Ignored by the
	// heap, which is deliberately a single shared structure.
	Shards int
	// Tick is the wheel tick granularity (0 = DefaultTick). Ignored by
	// the heap, which keeps exact deadlines.
	Tick time.Duration
	// Profile, when non-nil, receives lock-wait instrumentation
	// (metrics.MetricTimerLockWait): time callers spent blocked on the
	// subsystem's lock(s), counted only when the lock was contended.
	Profile *metrics.Profile
}

// NewScheduler builds the named implementation. An empty impl selects the
// wheel.
func NewScheduler(impl Impl, opts Options) (Scheduler, error) {
	switch impl {
	case "", ImplWheel:
		return NewWheel(opts), nil
	case ImplHeap:
		return newList(opts), nil
	default:
		return nil, fmt.Errorf("timerlist: unknown timer implementation %q", impl)
	}
}

// Timer lifecycle states.
const (
	timerPending int32 = iota
	timerFired
	timerCancelled
)

// Timer is one scheduled callback. It may fire at most once per Schedule;
// Cancel prevents a pending fire.
type Timer struct {
	at    time.Time
	fn    func()
	state atomic.Int32
	owner owner

	// Wheel linkage, guarded by the owning shard's mutex. The heap never
	// touches these fields.
	next, prev *Timer
	tick       int64
	level      int8
	slot       int16
	linked     bool
}

// owner lets Cancel tell the scheduler that bookkeeping is due: the heap
// counts the new corpse, the wheel unlinks the slot immediately.
type owner interface {
	onCancel(t *Timer)
}

// Cancel prevents the timer from firing if it has not fired yet. It is
// idempotent and safe to call concurrently with CheckNow. The callback is
// dropped here, not when the deadline ripens: winning the state CAS means
// no one will ever call it, and the heap keeps the Timer resident for up to
// its full duration.
func (t *Timer) Cancel() {
	if t == nil || !t.state.CompareAndSwap(timerPending, timerCancelled) {
		return
	}
	t.fn = nil
	if t.owner != nil {
		t.owner.onCancel(t)
	}
}

// lockTimed acquires mu, charging contended waits to lw. The uncontended
// fast path is a single TryLock CAS with no clock reads, so
// instrumentation costs nothing until the lock is actually fought over —
// which is precisely when the measurement matters.
func lockTimed(mu *sync.Mutex, lw *metrics.Timer) {
	if mu.TryLock() {
		return
	}
	if lw == nil {
		mu.Lock()
		return
	}
	t0 := time.Now()
	mu.Lock()
	lw.AddDuration(time.Since(t0))
}

// List is the shared single-heap timer list plus the "timer process"
// goroutine that periodically checks it — the paper's shape, kept as the
// `heap` policy.
type List struct {
	mu sync.Mutex
	h  timerHeap

	lockWait *metrics.Timer

	interval time.Duration
	stop     chan struct{}
	stopped  sync.WaitGroup

	scheduled atomic.Int64
	fired     atomic.Int64
	cancResid atomic.Int64
}

type timerHeap []*Timer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(*Timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	// Nil the vacated slot: the backing array survives the shrink, and a
	// retained *Timer pins its closure (and whatever the closure closes
	// over — messages, transactions) until the slot is overwritten.
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// New creates a heap timer list whose checking goroutine wakes every
// interval — the periodic check the paper describes. Call Close to stop it.
func New(interval time.Duration) *List {
	return newList(Options{Interval: interval})
}

// NewManual creates a heap list with no background goroutine; the caller
// drives it with CheckNow. Used by tests and by the transaction layer's
// unit tests for determinism.
func NewManual() *List {
	return newList(Options{})
}

func newList(opts Options) *List {
	l := &List{
		interval: opts.Interval,
		stop:     make(chan struct{}),
	}
	if opts.Profile != nil {
		l.lockWait = opts.Profile.Timer(metrics.MetricTimerLockWait)
	}
	if l.interval > 0 {
		l.stopped.Add(1)
		go l.run()
	}
	return l
}

func (l *List) run() {
	defer l.stopped.Done()
	ticker := time.NewTicker(l.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.CheckNow(time.Now())
		case <-l.stop:
			return
		}
	}
}

// Schedule arms fn to run at (roughly) time at. The callback runs on the
// timer goroutine; it must not block for long.
func (l *List) Schedule(at time.Time, fn func()) *Timer {
	t := &Timer{at: at, fn: fn, owner: l}
	lockTimed(&l.mu, l.lockWait)
	heap.Push(&l.h, t)
	l.mu.Unlock()
	l.scheduled.Add(1)
	return t
}

// After arms fn to run after d.
func (l *List) After(d time.Duration, fn func()) *Timer {
	return l.Schedule(time.Now().Add(d), fn)
}

// onCancel counts the corpse: the heap has no way to remove a cancelled
// timer early, so it stays resident until its deadline ripens in CheckNow.
func (l *List) onCancel(*Timer) { l.cancResid.Add(1) }

// CheckNow fires every expired, uncancelled timer as of now and returns
// how many fired. Callbacks run outside the list lock.
func (l *List) CheckNow(now time.Time) int {
	var due []*Timer
	lockTimed(&l.mu, l.lockWait)
	for len(l.h) > 0 && !l.h[0].at.After(now) {
		due = append(due, heap.Pop(&l.h).(*Timer))
	}
	l.mu.Unlock()
	n := 0
	for _, t := range due {
		if !t.state.CompareAndSwap(timerPending, timerFired) {
			// Cancelled corpse finally ripened; it stops being resident.
			l.cancResid.Add(-1)
			continue
		}
		t.fn()
		l.fired.Add(1)
		n++
	}
	return n
}

// Len returns how many timers are pending (including cancelled ones not
// yet reaped).
func (l *List) Len() int {
	lockTimed(&l.mu, l.lockWait)
	defer l.mu.Unlock()
	return len(l.h)
}

// Stats returns cumulative scheduled and fired counts. fired ≤ scheduled
// always holds (the package's core invariant).
func (l *List) Stats() (scheduled, fired int64) {
	return l.scheduled.Load(), l.fired.Load()
}

// CancelledResident returns how many cancelled timers still occupy the
// heap awaiting their deadline — the dead weight the wheel policy removes.
func (l *List) CancelledResident() int64 { return l.cancResid.Load() }

// Close stops the checking goroutine. Pending timers never fire after
// Close returns.
func (l *List) Close() {
	select {
	case <-l.stop:
		return
	default:
		close(l.stop)
	}
	l.stopped.Wait()
}
