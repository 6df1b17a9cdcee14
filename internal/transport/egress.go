package transport

import (
	"net/netip"
	"sync"
	"time"

	"gosip/internal/metrics"
)

// DefaultEgressLinger is the flush deadline for a partially filled egress
// batch. Microsecond-scale: long enough for a worker's burst of responses
// to pile into one sendmmsg, short enough to be invisible next to the
// workload's round-trip times.
const DefaultEgressLinger = 200 * time.Microsecond

// Egress is an outbound datagram queue in front of one UDP socket. Sends
// enqueue; the queue drains through sendmmsg when it fills (flush-full),
// when the owning worker finishes its receive batch (flush-drain), or when
// the linger deadline passes (flush-linger, covering timer retransmissions
// and stragglers). Each flush reason has its own counter, and batch
// occupancy lands in the socket's send-occupancy histogram, so the
// experiment can see exactly how the amortization happened.
//
// Enqueue copies the datagram's bytes into a recycled buffer: callers
// (the proxy's pooled messages) reuse their serialization buffers the
// moment the send call returns, so a deferred send must not alias them.
//
// Writes after Close fall through to the socket's single-datagram path, so
// late timer sends degrade gracefully instead of erroring.
type Egress struct {
	sock   *UDPSocket
	bw     *BatchWriter
	max    int
	linger time.Duration

	mu     sync.Mutex
	queue  []Datagram
	free   [][]byte // recycled copy buffers
	armed  bool     // a linger flush is scheduled
	closed bool
	err    error // sticky send error

	wake chan struct{}
	done chan struct{}

	flushFull, flushDrain, flushLinger, flushClose *metrics.Counter
}

// maxFreeEgressBufs bounds the recycle list: enough for a full queue plus
// a batch in flight.
func (e *Egress) maxFree() int { return 2 * e.max }

// NewEgress builds an egress queue of the given batch size over sock.
// linger ≤ 0 selects DefaultEgressLinger. The profile wires the
// flush-reason counters (nil profile = uninstrumented).
func NewEgress(sock *UDPSocket, batch int, linger time.Duration, prof *metrics.Profile) *Egress {
	if batch < 1 {
		batch = 1
	}
	if batch > MaxBatch {
		batch = MaxBatch
	}
	if linger <= 0 {
		linger = DefaultEgressLinger
	}
	e := &Egress{
		sock:   sock,
		bw:     sock.NewBatchWriter(batch),
		max:    batch,
		linger: linger,
		queue:  make([]Datagram, 0, batch),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if prof != nil {
		e.flushFull = prof.Counter(metrics.MetricEgressFlushFull)
		e.flushDrain = prof.Counter(metrics.MetricEgressFlushDrain)
		e.flushLinger = prof.Counter(metrics.MetricEgressFlushLinger)
		e.flushClose = prof.Counter(metrics.MetricEgressFlushClose)
	}
	go e.lingerLoop()
	return e
}

// Enqueue queues one datagram, copying data. It returns the queue's sticky
// error, so a dead socket surfaces on the send path just as it would
// unbatched.
func (e *Egress) Enqueue(data []byte, dst netip.AddrPort) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return e.sock.WriteTo(data, dst)
	}
	var buf []byte
	if n := len(e.free); n > 0 {
		buf = e.free[n-1]
		e.free = e.free[:n-1]
	}
	buf = append(buf[:0], data...)
	e.queue = append(e.queue, Datagram{Data: buf, Dst: dst})
	if len(e.queue) >= e.max {
		e.flushLocked(e.flushFull)
	} else if !e.armed {
		e.armed = true
		select {
		case e.wake <- struct{}{}:
		default:
		}
	}
	err := e.err
	e.mu.Unlock()
	return err
}

// Drain flushes whatever is queued. Batch workers call it after processing
// each receive batch: batch in, one sendmmsg out.
func (e *Egress) Drain() {
	e.mu.Lock()
	if !e.closed {
		e.flushLocked(e.flushDrain)
	}
	e.mu.Unlock()
}

// Err returns the sticky send error, if any.
func (e *Egress) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Close flushes the queue a final time and stops the linger goroutine.
// The socket itself is not closed.
func (e *Egress) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.flushLocked(e.flushClose)
	e.closed = true
	e.mu.Unlock()
	close(e.done)
}

// flushLocked sends the queue with one WriteBatch (mu held across the
// syscall: the only contenders are the owning worker and the linger
// goroutine, and serializing them here is what makes the batch atomic).
func (e *Egress) flushLocked(reason *metrics.Counter) {
	if len(e.queue) == 0 {
		return
	}
	if err := e.sock.WriteBatch(e.bw, e.queue); err != nil && e.err == nil {
		e.err = err
	}
	reason.Inc()
	for _, d := range e.queue {
		if len(e.free) < e.maxFree() {
			e.free = append(e.free, d.Data[:0])
		}
	}
	e.queue = e.queue[:0]
}

// lingerLoop is the flush-of-last-resort: woken by the first enqueue into
// an empty, unarmed queue, it waits out the linger and flushes whatever is
// there. Timer-driven retransmissions, which have no worker batch to ride
// on, leave on this path.
func (e *Egress) lingerLoop() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-e.done:
			return
		case <-e.wake:
		}
		timer.Reset(e.linger)
		select {
		case <-e.done:
			if !timer.Stop() {
				<-timer.C
			}
			return
		case <-timer.C:
		}
		e.mu.Lock()
		e.armed = false
		if !e.closed {
			e.flushLocked(e.flushLinger)
		}
		e.mu.Unlock()
	}
}
