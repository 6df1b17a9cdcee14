package core

import (
	"net"
	"sync"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/trace"
	"gosip/internal/userdb"
)

// streamBase is what the §3.1 and §6 architectures share: the listener, the
// proxy engine, the connection table, one reader goroutine per connection
// and the shutdown that joins them. What differs between the two is the
// streamWorker a reader runs its messages under.
type streamBase struct {
	sub    *substrate
	ln     net.Listener
	engine *proxy.Engine
	table  *conn.Table

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // acceptor, supervisor, workers and every reader
}

// streamWorker is an architecture's ownership policy on the receive path.
// handle runs one framed message to completion on the reader's goroutine and
// releases it; drop lets go of a connection whose reader has ended.
type streamWorker interface {
	handle(c *conn.TCPConn, m *sipmsg.Message)
	drop(c *conn.TCPConn)
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
	b := &streamBase{
		sub:    sub,
		ln:     ln,
		engine: proxy.NewEngine(sub.engineConfig(sub.streamKind(), local.IP.String(), local.Port), sub.loc, sub.db, sub.txns, sub.prof),
		table:  conn.NewTable(sub.prof),
		closed: make(chan struct{}),
	}
	sub.prof.SetGauge(metrics.GaugeOpenConns, func() float64 { return float64(b.table.Len()) })
	return b, nil
}

// startReader gives c its reader goroutine, run under w and counted in wg so
// Close can wait for it. A connection reaching here after Close swept the
// table — one a handler dialed while the server shut down — is removed on
// the spot, so its reader cannot block on a socket nobody else will close.
func (b *streamBase) startReader(w streamWorker, c *conn.TCPConn) {
	b.wg.Add(1)
	select {
	case <-b.closed:
		b.table.Remove(c)
	default:
	}
	go b.read(w, c)
}

// read is the reader goroutine of both stream architectures. It frames a
// message and runs it to completion before reading the next, so messages on
// one connection are handled in order and a busy pipeline leaves the next
// bytes in the socket buffer, where kernel flow control pushes back on the
// peer (Shen & Schulzrinne). EOF, reset, idle return, a failed TLS
// handshake and Close all leave through drop.
func (b *streamBase) read(w streamWorker, c *conn.TCPConn) {
	defer b.wg.Done()
	if b.sub.handshakeAccepted(c) == nil {
		for {
			m, err := c.Stream().ReadMessage()
			if err != nil {
				break
			}
			w.handle(c, m)
		}
	}
	w.drop(c)
}

// process runs one message through admission and the engine and releases
// it. queued is the threshold policy's per-worker load signal: the other
// messages of the receiving worker that are waiting for it or in process.
func (b *streamBase) process(send proxy.Sender, mgr connmgr.Manager, c *conn.TCPConn, m *sipmsg.Message, queued int, now time.Time) {
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
	c.Touch(now, b.sub.cfg.IdleTimeout)
	mgr.Touch(c)
	// Admission control runs before transaction and database work.
	if b.sub.admit(send, m, c, queued) {
		b.sub.handleTimed(b.engine, send, m, c)
	}
	// The engine retained the message if it needed it.
	m.Release()
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
		b.sub.close()
	})
}

func (b *streamBase) Addr() string                { return b.ln.Addr().String() }
func (b *streamBase) Engine() *proxy.Engine       { return b.engine }
func (b *streamBase) Profile() *metrics.Profile   { return b.sub.prof }
func (b *streamBase) Location() *location.Service { return b.sub.loc }
func (b *streamBase) DB() *userdb.DB              { return b.sub.db }
func (b *streamBase) Timers() timerlist.Scheduler { return b.sub.timers }
func (b *streamBase) Tracer() *trace.Recorder     { return b.sub.rec }

// ConnCount reports live connection objects (exported for tests and the
// experiment harness via type assertion).
func (b *streamBase) ConnCount() int { return b.table.Len() }
