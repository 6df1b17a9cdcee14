package core

import (
	"fmt"
	"net"
	"sync"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// streamBase is the one stream pipeline of the §3.1 and §6 architectures:
// the listener and its acceptor, the connection table, the workers' adopt
// and idle loop, one reader goroutine per connection, the sender and the
// shutdown that joins them. An architecture supplies where accepted
// connections go, a workerPolicy for its workers, and whatever runs beside
// them (the tcp supervisor).
type streamBase struct {
	*substrate
	ln    net.Listener
	table *conn.Table

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // acceptor, supervisor, workers and every reader
}

// workerPolicy is an architecture's half of a stream worker: the ownership
// policy — how a reader runs a message (handle), lets go of its connection
// (drop) and how the worker retires idle connections (idle) — and the
// handle-acquisition policy — how a handler writes a connection
// (sendOnConn) and who takes one it dialed (adoptDialed).
type workerPolicy interface {
	handle(c *conn.TCPConn, m *sipmsg.Message)
	drop(c *conn.TCPConn)
	idle(now time.Time, sweep bool)
	sendOnConn(c *conn.TCPConn, m *sipmsg.Message) error
	adoptDialed(c *conn.TCPConn)
}

// streamWorker is the part of a worker both architectures share: the
// mailbox of connections to adopt, the idle-connection manager of the ones
// it owns, and the stream proxy.Sender its readers hand the engine.
type streamWorker struct {
	id       int
	b        *streamBase
	policy   workerPolicy
	newConns chan *conn.TCPConn
	mgr      connmgr.Manager
}

func newStreamBase(cfg Config) (*streamBase, error) {
	sub, err := newSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		sub.close()
		return nil, err
	}
	local := ln.Addr().(*net.TCPAddr)
	sub.bind(sub.streamKind(), ln.Addr().String(), local.IP.String(), local.Port)
	b := &streamBase{
		substrate: sub,
		ln:        ln,
		table:     conn.NewTable(sub.prof),
		closed:    make(chan struct{}),
	}
	sub.prof.SetGauge(metrics.GaugeOpenConns, func() float64 { return float64(b.table.Len()) })
	return b, nil
}

func (b *streamBase) newWorker(id int, p workerPolicy) *streamWorker {
	return &streamWorker{
		id:     id,
		b:      b,
		policy: p,
		// The mailbox absorbs an accept burst while the worker's goroutine
		// runs an idle check; when every mailbox is full the tcp supervisor
		// parks the connection and the threaded acceptor waits.
		newConns: make(chan *conn.TCPConn, 64),
		mgr:      connmgr.New(b.cfg.ConnMgr, b.prof),
	}
}

// start runs the acceptor, handing each accepted connection to place, and
// the workers' loops.
func (b *streamBase) start(place func(*conn.TCPConn) bool, workers []*streamWorker) {
	b.wg.Add(1 + len(workers))
	go b.acceptor(place)
	for _, w := range workers {
		go w.run()
	}
}

// acceptor enters every accepted connection in the table and hands it to
// place, which returns false once the server is closing.
func (b *streamBase) acceptor(place func(*conn.TCPConn) bool) {
	defer b.wg.Done()
	for {
		nc, err := b.ln.Accept()
		if err != nil {
			return
		}
		c := b.table.Insert(b.wrapStream(nc), b.cfg.IdleTimeout)
		if !place(c) {
			b.table.Remove(c)
			return
		}
	}
}

// run is a worker's own goroutine: it adopts the connections placed on it
// and, after every event, runs the worker's idle check — sweeping on the
// periodic tick.
func (w *streamWorker) run() {
	defer w.b.wg.Done()
	ticker := time.NewTicker(w.b.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		sweep := false
		select {
		case c := <-w.newConns:
			w.adopt(c)
		case <-ticker.C:
			sweep = true
		case <-w.b.closed:
			return
		}
		w.policy.idle(time.Now(), sweep)
	}
}

// adopt takes ownership of a connection: only this worker's reader reads it.
// A connection reaching here after Close swept the table — one a handler
// dialed while the server shut down — is removed on the spot, so its reader
// cannot block on a socket nobody else will close.
func (w *streamWorker) adopt(c *conn.TCPConn) {
	c.SetOwner(w.id)
	w.mgr.Add(c)
	w.b.wg.Add(1)
	select {
	case <-w.b.closed:
		w.b.table.Remove(c)
	default:
	}
	go w.read(c)
}

// read is the reader goroutine. It frames a message and runs it to
// completion before reading the next, so messages on one connection are
// handled in order and a busy pipeline leaves the next bytes in the socket
// buffer, where kernel flow control pushes back on the peer (Shen &
// Schulzrinne). EOF, reset, idle return, a failed TLS handshake and Close
// all leave through drop. The reader owns the connection's read buffer and
// gives it back before drop, so a connection that lingering transactions
// still reference holds none.
func (w *streamWorker) read(c *conn.TCPConn) {
	defer w.b.wg.Done()
	if w.b.handshakeAccepted(c) == nil {
		for {
			m, err := c.Stream().ReadMessage()
			if err != nil {
				break
			}
			w.policy.handle(c, m)
		}
	}
	c.Stream().ReleaseReadBuffer()
	w.policy.drop(c)
}

// process is the stream preamble to the pipeline: drop a message that raced
// its connection's idle return, claim a pending TLS handshake span, push the
// connection's idle deadline. queued is the receiving worker's load signal.
func (b *streamBase) process(w *streamWorker, c *conn.TCPConn, m *sipmsg.Message, queued int, now time.Time) {
	if c.State() != conn.StateActive {
		m.Release() // raced with an idle return; drop as OpenSER would
		return
	}
	// The first traced request on a TLS connection inherits the handshake
	// that preceded it (negative Start offset: the cost was paid before the
	// request's first byte parsed).
	if end, d, ok := c.TakeHandshake(); ok {
		trace.Of(m).Add(trace.StageHandshake, end.Add(-d), d)
	}
	c.Touch(now, b.cfg.IdleTimeout)
	w.mgr.Touch(c)
	b.substrate.process(w, m, c, queued)
}

// expired returns the worker's own connections idle past the timeout,
// no longer tracked by its manager.
func (w *streamWorker) expired(now time.Time) []*conn.TCPConn {
	return w.mgr.Expired(now, func(c *conn.TCPConn, _ time.Time) bool { return c.Owner() == w.id })
}

// ToOrigin, ToBinding and ToAddr make streamWorker the stream proxy.Sender:
// they find the destination connection — the request's own, the one a
// binding registered over (OpenSER's connection reuse: its remote address is
// the binding source), or a live one to the address — and dial one when
// none is usable; the write itself is the worker policy's.
func (w *streamWorker) ToOrigin(origin any, m *sipmsg.Message) error {
	c, ok := origin.(*conn.TCPConn)
	if !ok {
		return fmt.Errorf("core: TCP origin is %T", origin)
	}
	return w.policy.sendOnConn(c, m)
}

func (w *streamWorker) ToBinding(bd location.Binding, m *sipmsg.Message) error {
	if bd.Source != "" {
		if c := w.b.table.Lookup(bd.Source); c != nil && c.State() == conn.StateActive {
			return w.policy.sendOnConn(c, m)
		}
	}
	return w.ToAddr(bd.Transport, bd.Contact.HostPort(), m)
}

func (w *streamWorker) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	if c := w.b.table.Lookup(hostport); c != nil && c.State() == conn.StateActive {
		return w.policy.sendOnConn(c, m)
	}
	// No usable connection: the worker establishes one (OpenSER's
	// tcpconn_connect) and the policy decides who owns its reads.
	sc, hs, err := w.b.dialStream(hostport)
	if err != nil {
		return err
	}
	if hs > 0 {
		trace.Of(m).Add(trace.StageHandshake, time.Now().Add(-hs), hs)
	}
	c := w.b.table.Insert(sc, w.b.cfg.IdleTimeout)
	w.policy.adoptDialed(c)
	return w.policy.sendOnConn(c, m)
}

// writeDirect writes m through the connection's shared socket object — an
// owner's write, and any write in the shared address space — and pushes the
// connection's idle deadline.
func (w *streamWorker) writeDirect(c *conn.TCPConn, m *sipmsg.Message) error {
	if err := ipc.DirectHandle(c).Send(m); err != nil {
		return err
	}
	c.Touch(time.Now(), w.b.cfg.IdleTimeout)
	w.mgr.Touch(c)
	return nil
}

// shutdown stops the architecture in the order its goroutines need: stop
// accepting; run unblock (anything besides a socket a handler can wait on);
// close every connection so readers return; wait for readers and workers;
// run release (state only handlers touch) and close the substrate. Either
// hook may be nil.
func (b *streamBase) shutdown(unblock, release func()) {
	b.closeOnce.Do(func() {
		close(b.closed)
		b.ln.Close()
		if unblock != nil {
			unblock()
		}
		for _, c := range b.table.Snapshot() {
			b.table.Remove(c)
		}
		b.wg.Wait()
		if release != nil {
			release()
		}
		b.close()
	})
}

// ConnCount reports live connection objects (exported for tests and the
// experiment harness via type assertion).
func (b *streamBase) ConnCount() int { return b.table.Len() }
