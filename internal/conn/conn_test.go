package conn

import (
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// pipeStream builds a StreamConn over an in-memory duplex pipe.
func pipeStream(t *testing.T) *transport.StreamConn {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return transport.NewStreamConn(c1)
}

func newTestTable(t *testing.T) *Table {
	return NewTable(metrics.NewProfile())
}

func TestInsertLookupRemove(t *testing.T) {
	tb := newTestTable(t)
	sc := pipeStream(t)
	c := tb.Insert(sc, time.Minute)
	if c.ID() == 0 {
		t.Error("ID should start at 1")
	}
	if c.State() != StateActive {
		t.Errorf("state = %v", c.State())
	}
	if c.Owner() != -1 {
		t.Errorf("owner = %d, want -1", c.Owner())
	}
	if got := tb.Get(c.ID()); got != c {
		t.Error("Get by ID failed")
	}
	if got := tb.Lookup(c.Key()); got != c {
		t.Error("Lookup by key failed")
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
	tb.Remove(c)
	if c.State() != StateClosed {
		t.Errorf("state after Remove = %v", c.State())
	}
	if tb.Get(c.ID()) != nil || tb.Lookup(c.Key()) != nil {
		t.Error("destroyed connection still reachable")
	}
	if tb.Len() != 0 {
		t.Errorf("Len = %d after remove", tb.Len())
	}
	// Removing twice is safe and does not double-count closes.
	tb.Remove(c)
	snap := func() int64 {
		return metricsValue(tb)
	}
	if snap() != 1 {
		t.Errorf("closed counter = %d, want 1", snap())
	}
}

func metricsValue(tb *Table) int64 { return tb.closed.Value() }

func TestIDsNeverReused(t *testing.T) {
	tb := newTestTable(t)
	seen := make(map[ID]bool)
	for i := 0; i < 100; i++ {
		c := tb.Insert(pipeStream(t), time.Minute)
		if seen[c.ID()] {
			t.Fatalf("ID %d reused", c.ID())
		}
		seen[c.ID()] = true
		tb.Remove(c)
	}
}

func TestTouchAndExpiry(t *testing.T) {
	tb := newTestTable(t)
	c := tb.Insert(pipeStream(t), 10*time.Millisecond)
	now := time.Now()
	if c.ExpiredAt(now) {
		t.Error("fresh connection already expired")
	}
	if !c.ExpiredAt(now.Add(20 * time.Millisecond)) {
		t.Error("connection not expired past deadline")
	}
	c.Touch(now.Add(time.Hour), 10*time.Millisecond)
	if c.ExpiredAt(now.Add(20 * time.Millisecond)) {
		t.Error("Touch did not extend the deadline")
	}
}

func TestTouchNeverMovesDeadlineEarlierProperty(t *testing.T) {
	// Property: with a fixed timeout, touching at a later time yields a
	// later (or equal) deadline.
	f := func(offsets []int16) bool {
		tb := newTestTable(t)
		c := tb.Insert(pipeStream(t), time.Second)
		base := time.Now()
		last := c.Deadline()
		elapsed := time.Duration(0)
		for _, o := range offsets {
			d := time.Duration(o&0x3ff) * time.Millisecond
			elapsed += d
			c.Touch(base.Add(elapsed), time.Second)
			if c.Deadline().Before(last) {
				return false
			}
			last = c.Deadline()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleTransitions(t *testing.T) {
	tb := newTestTable(t)
	c := tb.Insert(pipeStream(t), time.Minute)
	if !c.MarkWorkerReturned() {
		t.Error("Active -> WorkerReturned failed")
	}
	if c.State() != StateWorkerReturned {
		t.Errorf("state = %v", c.State())
	}
	if c.MarkWorkerReturned() {
		t.Error("WorkerReturned -> WorkerReturned should fail")
	}
	if !c.MarkClosed() {
		t.Error("MarkClosed failed")
	}
	if c.MarkClosed() {
		t.Error("double MarkClosed should report false")
	}
}

func TestSendLockedOnClosed(t *testing.T) {
	tb := newTestTable(t)
	c := tb.Insert(pipeStream(t), time.Minute)
	tb.Remove(c)
	err := c.SendLocked(func() error { t.Error("fn ran on closed conn"); return nil })
	if err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestSendLockedSerializes(t *testing.T) {
	tb := newTestTable(t)
	c := tb.Insert(pipeStream(t), time.Minute)
	var inside, max int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.SendLocked(func() error {
				mu.Lock()
				inside++
				if inside > max {
					max = inside
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inside--
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Errorf("max concurrent senders = %d, want 1", max)
	}
}

func TestLookupSkipsClosed(t *testing.T) {
	tb := newTestTable(t)
	c := tb.Insert(pipeStream(t), time.Minute)
	c.MarkClosed()
	if tb.Lookup(c.Key()) != nil {
		t.Error("Lookup returned a closed connection")
	}
}

func TestLookupReplacedKey(t *testing.T) {
	// Two connections from the same remote address: removal of the old one
	// must not delete the new one's key mapping.
	tb := newTestTable(t)
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	sc1 := transport.NewStreamConn(c1)
	sc2 := transport.NewStreamConn(c2)
	// net.Pipe addrs are identical, which conveniently models reconnection
	// from the same source address.
	old := tb.Insert(sc1, time.Minute)
	nw := tb.Insert(sc2, time.Minute)
	if old.Key() != nw.Key() {
		t.Skip("pipe addresses differ on this platform")
	}
	tb.Remove(old)
	if got := tb.Lookup(nw.Key()); got != nw {
		t.Errorf("Lookup after stale removal = %v, want the new conn", got)
	}
}

// TestUncontendedLookupChargesNoWait pins the lock-wait timer to contended
// acquisitions, as lock.txn_shards, lock.timers and lock.location count:
// an uncontended Lookup takes the TryLock fast path and reads no clock.
func TestUncontendedLookupChargesNoWait(t *testing.T) {
	prof := metrics.NewProfile()
	tb := NewTable(prof)
	c := tb.Insert(pipeStream(t), time.Minute)
	if tb.Lookup(c.Key()) != c {
		t.Fatal("Lookup failed")
	}
	if got := prof.Timer(metrics.MetricLockWaitTime).Count(); got != 0 {
		t.Errorf("lock.conn_table count = %d after an uncontended Insert and Lookup, want 0", got)
	}
}

func TestForEachLockedVisitsAll(t *testing.T) {
	tb := newTestTable(t)
	const n = 20
	want := make(map[ID]bool)
	for i := 0; i < n; i++ {
		c := tb.Insert(pipeStream(t), time.Minute)
		want[c.ID()] = true
	}
	got := make(map[ID]bool)
	tb.ForEachLocked(func(c *TCPConn) { got[c.ID()] = true })
	if len(got) != n {
		t.Errorf("visited %d, want %d", len(got), n)
	}
	for id := range want {
		if !got[id] {
			t.Errorf("ID %d not visited", id)
		}
	}
}

func TestConcurrentTableOps(t *testing.T) {
	tb := newTestTable(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c1, c2 := net.Pipe()
				c := tb.Insert(transport.NewStreamConn(c1), time.Minute)
				tb.Get(c.ID())
				tb.Lookup(c.Key())
				tb.Remove(c)
				c1.Close()
				c2.Close()
			}
		}()
	}
	wg.Wait()
	if tb.Len() != 0 {
		t.Errorf("Len = %d after all removes", tb.Len())
	}
}

func TestStateString(t *testing.T) {
	if StateActive.String() != "active" || StateClosed.String() != "closed" ||
		StateWorkerReturned.String() != "worker-returned" || State(99).String() != "unknown" {
		t.Error("State.String broken")
	}
}

func TestSnapshotDoesNotHoldLock(t *testing.T) {
	tb := newTestTable(t)
	for i := 0; i < 5; i++ {
		tb.Insert(pipeStream(t), time.Minute)
	}
	snap := tb.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Table calls from within snapshot processing must not deadlock.
	for _, c := range snap {
		tb.Get(c.ID())
	}
}
