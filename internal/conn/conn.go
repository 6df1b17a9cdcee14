// Package conn implements the application-level TCP connection objects and
// the shared connection hash table at the heart of OpenSER's TCP
// architecture (Ram et al., §3.1).
//
// Each accepted TCP connection has a TCPConn object stored in a Table that
// is shared between the supervisor and all workers. The baseline
// architecture protects the whole table with a single lock and scans every
// object in it while searching for idle connections — the behaviour the
// paper identifies as the second major TCP overhead.
package conn

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// ID uniquely identifies a connection object for the lifetime of a server.
// IDs are never reused, so holding an ID can never alias a different
// connection (the property the fd cache's validity check relies on).
type ID uint64

// State is a connection object's lifecycle state.
type State int32

// Connection lifecycle, mirroring §3.1: a connection is Active while the
// owning worker may read from it; once idle past the worker timeout the
// worker closes its descriptor and "returns" it (WorkerReturned); after an
// additional supervisor timeout the supervisor closes its own descriptor
// and destroys the object (Closed).
const (
	StateActive State = iota
	StateWorkerReturned
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateWorkerReturned:
		return "worker-returned"
	case StateClosed:
		return "closed"
	}
	return "unknown"
}

// ErrClosed is returned when an operation is attempted on a destroyed
// connection object.
var ErrClosed = errors.New("conn: connection closed")

// TCPConn is the application-level connection object.
type TCPConn struct {
	id  ID
	key string // remote address, the hash-table key

	stream *transport.StreamConn // the supervisor's copy of the socket

	state    atomic.Int32
	owner    atomic.Int32 // worker index that owns reads; -1 before assignment
	deadline atomic.Int64 // idle deadline, unix nanos

	// hsEnd/hsDur stash the TLS handshake measurement until the first
	// traced request on this connection claims it (TakeHandshake), so the
	// handshake cost appears on the timeline of the call that paid it.
	hsEnd atomic.Int64 // unix nanos of handshake completion; 0 = none pending
	hsDur atomic.Int64 // handshake duration, nanos

	// sendMu serializes message sends across all handles to this
	// connection — OpenSER's user-level lock for atomic sends on shared
	// connections. (Each message is normally one write call, but the lock
	// also covers the chan-IPC mode where handles share one socket object,
	// and a message on a passed descriptor that a full socket buffer split
	// into several writes.)
	sendMu sync.Mutex
}

// ID returns the connection's identity.
func (c *TCPConn) ID() ID { return c.id }

// String returns the remote address, which doubles as the table key. The
// proxy records it as a registration's source so later forwards can reuse
// this connection.
func (c *TCPConn) String() string { return c.key }

// Key returns the hash-table key (the remote address).
func (c *TCPConn) Key() string { return c.key }

// Stream returns the supervisor's socket for this connection.
func (c *TCPConn) Stream() *transport.StreamConn { return c.stream }

// State returns the lifecycle state.
func (c *TCPConn) State() State { return State(c.state.Load()) }

// Owner returns the index of the worker that owns reads (-1 if unassigned).
func (c *TCPConn) Owner() int { return int(c.owner.Load()) }

// SetOwner records the owning worker.
func (c *TCPConn) SetOwner(w int) { c.owner.Store(int32(w)) }

// Touch pushes the idle deadline to now+timeout; called on every send and
// receive, as OpenSER's workers "update the timeout value of a TCP
// connection each time they receive or send a message".
func (c *TCPConn) Touch(now time.Time, timeout time.Duration) {
	c.deadline.Store(now.Add(timeout).UnixNano())
}

// Deadline returns the current idle deadline.
func (c *TCPConn) Deadline() time.Time { return time.Unix(0, c.deadline.Load()) }

// ExpiredAt reports whether the idle deadline has passed at now.
func (c *TCPConn) ExpiredAt(now time.Time) bool { return now.UnixNano() >= c.deadline.Load() }

// SetHandshake records a completed TLS handshake (its end instant and
// duration) for the first traced request on this connection to claim.
func (c *TCPConn) SetHandshake(end time.Time, d time.Duration) {
	c.hsDur.Store(int64(d))
	c.hsEnd.Store(end.UnixNano())
}

// TakeHandshake claims the pending handshake measurement, if any. At most
// one caller observes ok=true per recorded handshake.
func (c *TCPConn) TakeHandshake() (end time.Time, d time.Duration, ok bool) {
	e := c.hsEnd.Swap(0)
	if e == 0 {
		return time.Time{}, 0, false
	}
	return time.Unix(0, e), time.Duration(c.hsDur.Load()), true
}

// MarkWorkerReturned transitions Active → WorkerReturned; the owning worker
// has closed its descriptor. Returns false if the connection was not Active.
func (c *TCPConn) MarkWorkerReturned() bool {
	return c.state.CompareAndSwap(int32(StateActive), int32(StateWorkerReturned))
}

// MarkClosed transitions to Closed from any state; returns false when it
// already was Closed.
func (c *TCPConn) MarkClosed() bool {
	return c.state.Swap(int32(StateClosed)) != int32(StateClosed)
}

// SendLocked runs fn while holding the connection's send lock. fn gets the
// connection's lifecycle checked first: sending on a Closed connection
// fails fast.
func (c *TCPConn) SendLocked(fn func() error) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.State() == StateClosed {
		return ErrClosed
	}
	return fn()
}

// Table is the shared hash table of connection objects. A single
// sched_yield spin lock guards it, exactly as in the baseline OpenSER
// design; the lock-wait time is accounted so the profile shows contention
// the way the paper's kernel profiles showed sched_yield storms.
type Table struct {
	mu      YieldLock
	byID    map[ID]*TCPConn
	byKey   map[string]*TCPConn
	nextID  atomic.Uint64
	profile *metrics.Profile

	lockWait *metrics.Timer
	accepted *metrics.Counter
	closed   *metrics.Counter
}

// NewTable creates an empty connection table reporting into profile.
func NewTable(profile *metrics.Profile) *Table {
	return &Table{
		byID:     make(map[ID]*TCPConn),
		byKey:    make(map[string]*TCPConn),
		profile:  profile,
		lockWait: profile.Timer(metrics.MetricLockWaitTime),
		accepted: profile.Counter(metrics.MetricConnsAccepted),
		closed:   profile.Counter(metrics.MetricConnsClosed),
	}
}

// lock acquires the global table lock, charging any contended wait to the
// lock-wait timer. The TryLock fast path costs one CAS when uncontended, so
// only a contended acquisition reads the clock and spins with sched_yield.
func (t *Table) lock() {
	if t.mu.TryLock() {
		return
	}
	start := time.Now()
	t.mu.Lock()
	t.lockWait.AddDuration(time.Since(start))
}

// Insert creates a connection object for an accepted socket, stores it, and
// returns it with the idle deadline initialized.
func (t *Table) Insert(sc *transport.StreamConn, idleTimeout time.Duration) *TCPConn {
	c := &TCPConn{
		id:     ID(t.nextID.Add(1)),
		key:    sc.RemoteAddr().String(),
		stream: sc,
	}
	c.owner.Store(-1)
	c.Touch(time.Now(), idleTimeout)
	t.lock()
	t.byID[c.id] = c
	t.byKey[c.key] = c
	t.mu.Unlock()
	t.accepted.Inc()
	return c
}

// Get returns the connection with the given ID, or nil.
func (t *Table) Get(id ID) *TCPConn {
	t.lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Lookup finds an Active connection to the given remote address, or nil.
// The proxy uses this to reuse the caller's or callee's existing connection
// when forwarding.
func (t *Table) Lookup(key string) *TCPConn {
	t.lock()
	defer t.mu.Unlock()
	c := t.byKey[key]
	if c == nil || c.State() == StateClosed {
		return nil
	}
	return c
}

// Remove destroys the connection object: removes it from the table, marks
// it Closed, and closes the supervisor's socket. Safe to call twice.
func (t *Table) Remove(c *TCPConn) {
	t.lock()
	delete(t.byID, c.id)
	if cur := t.byKey[c.key]; cur == c {
		delete(t.byKey, c.key)
	}
	t.mu.Unlock()
	if c.MarkClosed() {
		_ = c.stream.Close()
		t.closed.Inc()
	}
}

// Len returns the number of live connection objects.
func (t *Table) Len() int {
	t.lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// ForEachLocked visits every connection object while holding the global
// table lock for the entire traversal — the baseline idle-scan behaviour
// the paper measures ("the supervisor process examined every TCP
// connection object in the shared hash table while holding a lock").
// The visit function must not call back into the Table.
func (t *Table) ForEachLocked(visit func(*TCPConn)) {
	t.lock()
	defer t.mu.Unlock()
	for _, c := range t.byID {
		visit(c)
	}
}

// Snapshot returns the current connection objects without holding the lock
// during the caller's processing (used by tests and the threaded server).
func (t *Table) Snapshot() []*TCPConn {
	t.lock()
	defer t.mu.Unlock()
	out := make([]*TCPConn, 0, len(t.byID))
	for _, c := range t.byID {
		out = append(out, c)
	}
	return out
}
