package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// threadedServer is the architecture §6 argues for: a multi-threaded,
// event-driven server in which all workers share one address space. With
// all workers able to use any file descriptor, the supervisor fd service
// and its IPC disappear entirely; connection writes need only the per-
// connection lock. Idle management is one-phase: the owning worker closes
// and destroys its own idle connections.
type threadedServer struct {
	*streamBase

	workers []*threadedWorker
	rr      int
}

// threadedWorker owns a share of the connections: its goroutine adopts them
// and closes them when idle, and their readers run the pipeline
// concurrently — the shared address space needs no one message at a time.
type threadedWorker struct {
	id  int
	srv *threadedServer

	newConns chan *conn.TCPConn
	// inPipeline counts this worker's connections' messages in process: the
	// admission load signal.
	inPipeline atomic.Int32

	localMgr connmgr.Manager
	sender   *threadedSender
}

func newThreadedServer(cfg Config) (Server, error) {
	base, err := newStreamBase(cfg)
	if err != nil {
		return nil, err
	}
	srv := &threadedServer{streamBase: base}
	for i := 0; i < cfg.Workers; i++ {
		w := &threadedWorker{
			id:       i,
			srv:      srv,
			newConns: make(chan *conn.TCPConn, 64),
			localMgr: connmgr.New(cfg.ConnMgr, base.sub.prof),
		}
		w.sender = &threadedSender{w: w}
		srv.workers = append(srv.workers, w)
	}
	srv.wg.Add(1 + len(srv.workers))
	go srv.acceptor()
	for _, w := range srv.workers {
		go w.run()
	}
	return srv, nil
}

func (s *threadedServer) acceptor() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		sc := s.sub.wrapStream(nc)
		c := s.table.Insert(sc, s.sub.cfg.IdleTimeout)
		if !s.dispatch(c) {
			s.table.Remove(c)
			return
		}
	}
}

// workerFor hashes a peer address (FNV-1a) to its affinity worker, so every
// connection from one peer — and the Call-ID-keyed transactions and timers
// its dialogs create — lands on the same worker.
func (s *threadedServer) workerFor(key string) *threadedWorker {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.workers[h%uint32(len(s.workers))]
}

// dispatch assigns a connection to a worker. Round-robin spreads for
// balance, blocking on the least-loaded fallback; affinity pins by peer
// hash and waits for that specific worker — locality is the policy's whole
// point, so it does not spill. With no supervisor in the loop there is no
// two-party deadlock to avoid.
func (s *threadedServer) dispatch(c *conn.TCPConn) bool {
	if s.sub.cfg.Dispatch == DispatchAffinity {
		w := s.workerFor(c.Key())
		select {
		case w.newConns <- c:
			return true
		case <-s.closed:
			return false
		}
	}
	for i := 0; i < len(s.workers); i++ {
		w := s.workers[s.rr%len(s.workers)]
		s.rr++
		select {
		case w.newConns <- c:
			return true
		default:
		}
	}
	w := s.workers[s.rr%len(s.workers)]
	s.rr++
	select {
	case w.newConns <- c:
		return true
	case <-s.closed:
		return false
	}
}

func (w *threadedWorker) run() {
	defer w.srv.wg.Done()
	ticker := time.NewTicker(w.srv.sub.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		select {
		case c := <-w.newConns:
			w.adopt(c)
		case now := <-ticker.C:
			w.idleCheck(now)
		case <-w.srv.closed:
			return
		}
	}
}

func (w *threadedWorker) adopt(c *conn.TCPConn) {
	c.SetOwner(w.id)
	w.localMgr.Add(c)
	w.srv.startReader(w, c)
}

// handle runs the pipeline on the reader's goroutine, concurrently with the
// worker's other connections: there is no queue, so no queue span either.
func (w *threadedWorker) handle(c *conn.TCPConn, m *sipmsg.Message) {
	queued := int(w.inPipeline.Add(1)) - 1
	w.srv.process(w.sender, w.localMgr, c, m, queued, time.Now())
	w.inPipeline.Add(-1)
}

// drop destroys a connection in one step: shared address space means no
// return-to-supervisor handshake.
func (w *threadedWorker) drop(c *conn.TCPConn) {
	w.localMgr.Remove(c)
	w.srv.table.Remove(c)
}

func (w *threadedWorker) idleCheck(now time.Time) {
	for _, c := range w.localMgr.Expired(now, func(c *conn.TCPConn, _ time.Time) bool {
		return c.Owner() == w.id
	}) {
		_ = c.Stream().SetReadDeadline(time.Now())
		w.srv.table.Remove(c)
	}
}

// threadedSender writes any connection directly — the §6 payoff.
type threadedSender struct {
	w *threadedWorker
}

func (ts *threadedSender) ToOrigin(origin any, m *sipmsg.Message) error {
	c, ok := origin.(*conn.TCPConn)
	if !ok {
		return fmt.Errorf("core: TCP origin is %T", origin)
	}
	return ts.send(c, m)
}

func (ts *threadedSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	if b.Source != "" {
		if c := ts.w.srv.table.Lookup(b.Source); c != nil && c.State() == conn.StateActive {
			return ts.send(c, m)
		}
	}
	return ts.ToAddr(b.Transport, b.Contact.HostPort(), m)
}

func (ts *threadedSender) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	if c := ts.w.srv.table.Lookup(hostport); c != nil && c.State() == conn.StateActive {
		return ts.send(c, m)
	}
	sc, hs, err := ts.w.srv.sub.dialStream(hostport)
	if err != nil {
		return err
	}
	if hs > 0 {
		now := time.Now()
		trace.Of(m).Add(trace.StageHandshake, now.Add(-hs), hs)
	}
	srv := ts.w.srv
	c := srv.table.Insert(sc, srv.sub.cfg.IdleTimeout)
	// Under affinity dispatch a dialed connection belongs to the peer's
	// hash worker, same as an accepted one; sending needs no ownership, so
	// the write proceeds while the owner adopts. A backlogged owner keeps
	// the connection local rather than stalling this handler.
	if srv.sub.cfg.Dispatch == DispatchAffinity {
		if w2 := srv.workerFor(c.Key()); w2 != ts.w {
			select {
			case w2.newConns <- c:
				return ts.send(c, m)
			default:
			}
		}
	}
	ts.w.adopt(c)
	return ts.send(c, m)
}

func (ts *threadedSender) send(c *conn.TCPConn, m *sipmsg.Message) error {
	if err := ipc.DirectHandle(c).Send(m); err != nil {
		return err
	}
	c.Touch(time.Now(), ts.w.srv.sub.cfg.IdleTimeout)
	ts.w.localMgr.Touch(c)
	return nil
}

func (s *threadedServer) Close() error {
	s.shutdown(nil, nil)
	return nil
}
