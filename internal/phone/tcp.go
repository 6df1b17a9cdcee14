package phone

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// tcpEndpoint is a phone's TCP side: a client connection to the proxy for
// outgoing requests, plus a listener the proxy can dial when it has no
// usable connection to this phone (OpenSER's outbound connect path).
type tcpEndpoint struct {
	cfg  Config
	role Role

	ln         net.Listener
	listenHost string
	listenPort int

	mu        sync.Mutex
	cli       *transport.StreamConn
	opsOnConn int
	serving   map[*transport.StreamConn]struct{}

	reconnects int

	closeOnce sync.Once
	startOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

func newTCPEndpoint(cfg Config, role Role) (*tcpEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().(*net.TCPAddr)
	return &tcpEndpoint{
		cfg:        cfg,
		role:       role,
		ln:         ln,
		listenHost: addr.IP.String(),
		listenPort: addr.Port,
		serving:    make(map[*transport.StreamConn]struct{}),
		done:       make(chan struct{}),
	}, nil
}

// dial opens a stream connection to target, adding the TLS client layer
// (and paying — or resuming — its handshake) when the phone speaks TLS.
func (e *tcpEndpoint) dial(target string) (*transport.StreamConn, error) {
	if e.cfg.TLS == nil {
		return transport.DialTCP(target)
	}
	tc, err := e.cfg.TLS.DialAddr(target, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return transport.NewStreamConn(tc), nil
}

// ensureConn returns the current client connection, dialing if needed.
func (e *tcpEndpoint) ensureConn() (*transport.StreamConn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cli != nil {
		return e.cli, nil
	}
	sc, err := e.dial(e.cfg.ProxyAddr)
	if err != nil {
		return nil, err
	}
	e.cli = sc
	return sc, nil
}

func (e *tcpEndpoint) dropConn(sc *transport.StreamConn) {
	e.mu.Lock()
	if e.cli == sc {
		e.cli = nil
		e.opsOnConn = 0
	}
	e.mu.Unlock()
	sc.Close()
}

// completedOp applies the ops-per-connection policy after a successful
// transaction: once the budget is used, the connection is closed so the
// next request re-establishes it (the paper's non-persistent workloads).
func (e *tcpEndpoint) completedOp() {
	if e.cfg.OpsPerConn <= 0 {
		return
	}
	e.mu.Lock()
	e.opsOnConn++
	if e.opsOnConn >= e.cfg.OpsPerConn {
		if e.cli != nil {
			e.cli.Close()
			e.cli = nil
		}
		e.opsOnConn = 0
		e.reconnects++
	}
	e.mu.Unlock()
}

func (e *tcpEndpoint) send(m *sipmsg.Message) error {
	sc, err := e.ensureConn()
	if err != nil {
		return err
	}
	if err := sc.WriteMessage(m); err != nil {
		// The server may have idle-closed the connection; one redial.
		e.dropConn(sc)
		sc, err = e.ensureConn()
		if err != nil {
			return err
		}
		return sc.WriteMessage(m)
	}
	return nil
}

// request performs one transaction over TCP: reliable transport, so no
// retransmission — but the server closing an idle connection mid-cycle is
// tolerated with a bounded redial.
func (e *tcpEndpoint) request(req *sipmsg.Message, method sipmsg.Method, stats *Stats) (*sipmsg.Message, error) {
	callID := req.CallID()
	seq, _, err := req.CSeq()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		sc, err := e.ensureConn()
		if err != nil {
			lastErr = err
			continue
		}
		if err := sc.WriteMessage(req); err != nil {
			lastErr = err
			e.dropConn(sc)
			continue
		}
		deadline := time.Now().Add(e.cfg.ResponseTimeout)
		final, err := e.awaitFinal(sc, callID, seq, method, deadline)
		if err != nil {
			lastErr = err
			e.dropConn(sc)
			continue
		}
		e.completedOp()
		return final, nil
	}
	// A read-deadline expiry means the proxy went silent (the TCP analogue
	// of the UDP retransmission budget running out); anything else is a
	// genuine transport fault.
	if errors.Is(lastErr, os.ErrDeadlineExceeded) {
		return nil, fmt.Errorf("%w: tcp transaction: %v", ErrTimeout, lastErr)
	}
	return nil, fmt.Errorf("%w: tcp transaction: %v", ErrTransport, lastErr)
}

func (e *tcpEndpoint) awaitFinal(sc *transport.StreamConn, callID string, seq uint32, method sipmsg.Method, deadline time.Time) (*sipmsg.Message, error) {
	for {
		if err := sc.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		m, err := sc.ReadMessage()
		if err != nil {
			return nil, err
		}
		if !matchesTxn(m, callID, seq, method) {
			m.Release()
			continue
		}
		if m.StatusCode >= 200 {
			// Final responses escape to the caller: as an unpooled copy, so
			// the parsed message goes back to the pool (see udp.go).
			_ = sc.SetReadDeadline(time.Time{})
			final := m.Clone()
			m.Release()
			return final, nil
		}
		m.Release()
		deadline = time.Now().Add(e.cfg.ResponseTimeout)
	}
}

// tcpLeg is a transient direct connection to a redirect target.
type tcpLeg struct {
	e  *tcpEndpoint
	sc *transport.StreamConn
}

func (e *tcpEndpoint) directLeg(target string) (*tcpLeg, error) {
	sc, err := e.dial(target)
	if err != nil {
		return nil, err
	}
	return &tcpLeg{e: e, sc: sc}, nil
}

func (l *tcpLeg) request(req *sipmsg.Message, method sipmsg.Method, stats *Stats) (*sipmsg.Message, error) {
	callID := req.CallID()
	seq, _, err := req.CSeq()
	if err != nil {
		return nil, err
	}
	if err := l.sc.WriteMessage(req); err != nil {
		return nil, err
	}
	return l.e.awaitFinal(l.sc, callID, seq, method, time.Now().Add(l.e.cfg.ResponseTimeout))
}

func (l *tcpLeg) send(m *sipmsg.Message) error { return l.sc.WriteMessage(m) }

func (l *tcpLeg) close() { l.sc.Close() }

// startAnswering runs the callee loops: serve the registered client
// connection (the proxy reuses it to deliver requests) and accept
// proxy-initiated connections on the listener.
func (e *tcpEndpoint) startAnswering() {
	started := false
	e.startOnce.Do(func() { started = true })
	if !started {
		return
	}
	e.mu.Lock()
	cli := e.cli
	e.cli = nil // the answering loop owns it now
	e.mu.Unlock()
	if cli != nil {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(cli)
		}()
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			nc, err := e.ln.Accept()
			if err != nil {
				return
			}
			if tc, ok := nc.(*net.TCPConn); ok {
				_ = tc.SetNoDelay(true)
			}
			// TLS phones answer proxy-dialed connections with the same
			// certificate the proxy trusts; Server is a no-op without TLS
			// and the handshake completes lazily on the first read.
			nc = e.cfg.TLS.Server(nc)
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.serveConn(transport.NewStreamConn(nc))
			}()
		}
	}()
}

// serveConn answers requests arriving on one connection until it fails.
func (e *tcpEndpoint) serveConn(sc *transport.StreamConn) {
	e.mu.Lock()
	e.serving[sc] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.serving, sc)
		e.mu.Unlock()
		sc.Close()
	}()
	contact := sipmsg.URI{User: e.cfg.User, Host: e.listenHost, Port: e.listenPort}
	for {
		m, err := sc.ReadMessage()
		if err != nil {
			return
		}
		if !m.IsRequest {
			m.Release()
			continue
		}
		for _, resp := range answer(m, e.cfg.User, contact) {
			if err := sc.WriteMessage(resp); err != nil {
				m.Release()
				return
			}
		}
		m.Release()
	}
}

func (e *tcpEndpoint) close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.ln.Close()
		e.mu.Lock()
		if e.cli != nil {
			e.cli.Close()
			e.cli = nil
		}
		for sc := range e.serving {
			sc.Close()
		}
		e.mu.Unlock()
	})
	e.wg.Wait()
	return nil
}
