package core

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/fdcache"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/proxy"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/trace"
	"gosip/internal/userdb"
)

// tcpServer is the §3.1 architecture: one supervisor goroutine owns
// connection management (accept, assignment, fd service, idle close);
// worker goroutines own reads on their assigned connections and must
// obtain descriptors through the IPC fabric for every other connection.
type tcpServer struct {
	sub    *substrate
	ln     net.Listener
	engine *proxy.Engine
	table  *conn.Table
	fabric *ipc.Fabric
	supMgr connmgr.Manager

	workers []*tcpWorker

	accepts chan *conn.TCPConn // acceptor → supervisor
	adopted chan *conn.TCPConn // worker-dialed conns → supervisor tracking
	retired chan *conn.TCPConn // dead conns → supervisor destroy

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // acceptor + supervisor + workers

	// pending holds accepted connections waiting for a worker with mailbox
	// room. Buffering here instead of blocking on a worker's queue is the
	// §6 deadlock avoidance: the supervisor must never block sending to a
	// worker that may itself be blocked waiting on the supervisor.
	pending []*conn.TCPConn
	// rng drives worker assignment. OpenSER's assignment is arbitrary with
	// respect to which connections later form the two halves of a
	// transaction ("the supervisor cannot know ahead of time which
	// connections will form the two halves"); randomizing preserves that
	// property, which deterministic round-robin accidentally violates for
	// paired benchmark arrivals.
	rng *rand.Rand
}

// tcpWorker models one OpenSER worker process: a single event loop that
// processes messages from its owned connections, returns idle ones, and
// sends through its fd cache / the IPC fabric.
type tcpWorker struct {
	id  int
	srv *tcpServer

	newConns chan *conn.TCPConn
	events   chan workerEvent

	owned    map[conn.ID]*conn.TCPConn
	localMgr connmgr.Manager
	cache    *fdcache.Cache // nil when the Figure 4 fix is disabled
	sender   *tcpSender
}

type workerEvent struct {
	c *conn.TCPConn
	m *sipmsg.Message // nil: the reader terminated (EOF, reset, or return)
}

func newTCPServer(cfg Config) (Server, error) {
	sub, err := newSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := sub.listenStream(cfg.Addr)
	if err != nil {
		sub.close()
		return nil, err
	}
	fabric, err := ipc.NewFabric(cfg.IPCMode, cfg.Workers, cfg.IPCTimeout, sub.prof)
	if err != nil {
		ln.Close()
		sub.close()
		return nil, err
	}
	local := ln.Addr().(*net.TCPAddr)
	engine := proxy.NewEngine(sub.engineConfig(sub.streamKind(), local.IP.String(), local.Port), sub.loc, sub.db, sub.txns, sub.prof)

	table := conn.NewTable(sub.prof)
	// The supervisor's baseline strategy scans the shared table under its
	// global lock (the paper's §5.2 pathology); the pqueue fix replaces it.
	var supMgr connmgr.Manager
	if cfg.ConnMgr == connmgr.KindPQueue {
		supMgr = connmgr.NewPQueue(sub.prof)
	} else {
		supMgr = connmgr.NewTableScanner(table, sub.prof)
	}
	srv := &tcpServer{
		sub:     sub,
		ln:      ln,
		engine:  engine,
		table:   table,
		fabric:  fabric,
		supMgr:  supMgr,
		accepts: make(chan *conn.TCPConn, 64),
		adopted: make(chan *conn.TCPConn, 64),
		retired: make(chan *conn.TCPConn, 256),
		closed:  make(chan struct{}),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if pq, ok := srv.supMgr.(*connmgr.PQueue); ok {
		pq.ReinsertDelay = cfg.SupervisorGrace
	}
	sub.prof.SetGauge(metrics.GaugeOpenConns, func() float64 { return float64(table.Len()) })
	for i := 0; i < cfg.Workers; i++ {
		w := &tcpWorker{
			id:       i,
			srv:      srv,
			newConns: make(chan *conn.TCPConn, 64),
			events:   make(chan workerEvent, 256),
			owned:    make(map[conn.ID]*conn.TCPConn),
			localMgr: connmgr.New(cfg.ConnMgr, sub.prof),
		}
		if cfg.FDCache {
			w.cache = fdcache.New(cfg.FDCacheCapacity, sub.prof)
		}
		w.sender = &tcpSender{w: w}
		srv.workers = append(srv.workers, w)
	}
	sub.setEngineInfo(sub.streamEngineSelected())
	srv.wg.Add(2 + len(srv.workers))
	go srv.acceptor()
	go srv.supervisor()
	for _, w := range srv.workers {
		go w.run()
	}
	return srv, nil
}

// acceptor feeds new connections to the supervisor, which alone decides
// ownership ("the supervisor accepts all connections on behalf of the
// server"). In OpenSER the supervisor itself sits in accept(); splitting
// the blocking accept from the supervisor loop is the Go equivalent, with
// the handoff channel playing the listen backlog.
func (s *tcpServer) acceptor() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		sc := s.sub.wrapStream(nc)
		c := s.table.Insert(sc, s.sub.cfg.IdleTimeout)
		select {
		case s.accepts <- c:
		case <-s.closed:
			s.table.Remove(c)
			return
		}
	}
}

// supervisor is the single connection-management process.
func (s *tcpServer) supervisor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.sub.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		s.assignPending()
		select {
		case c := <-s.accepts:
			s.assign(c)
		case req := <-s.fabric.Requests():
			s.serveFD(req)
		case c := <-s.adopted:
			s.supMgr.Add(c)
		case c := <-s.retired:
			s.destroy(c)
		case <-ticker.C:
		case <-s.closed:
			return
		}
		// OpenSER's tcp_main checks for idle connections on every loop
		// iteration, so the check's cost is paid per event: O(table) under
		// the global lock for the baseline scanner, O(expired) for the
		// priority queue. This per-iteration placement is what Figure 5
		// measures.
		s.idleCheck(time.Now())
	}
}

// serveFD answers one worker's blocking descriptor request. With the
// supervisor priority boost absent (§4.3), each request first pays the
// scheduling penalty, starving all blocked workers.
func (s *tcpServer) serveFD(req ipc.Request) {
	if p := s.sub.cfg.SupervisorPenalty; p > 0 {
		time.Sleep(p)
	}
	c := s.table.Get(req.ConnID)
	if c == nil || c.State() == conn.StateClosed {
		s.fabric.Respond(req, nil, ipc.ErrConnGone)
		return
	}
	s.fabric.Respond(req, c, nil)
}

// assign hands a new connection to a worker. Round-robin with a
// non-blocking send; full mailboxes push the connection to the pending
// list rather than blocking the supervisor (§6 deadlock avoidance).
func (s *tcpServer) assign(c *conn.TCPConn) {
	s.supMgr.Add(c)
	if !s.tryAssign(c) {
		s.pending = append(s.pending, c)
	}
}

func (s *tcpServer) tryAssign(c *conn.TCPConn) bool {
	start := s.rng.Intn(len(s.workers))
	for i := 0; i < len(s.workers); i++ {
		w := s.workers[(start+i)%len(s.workers)]
		select {
		case w.newConns <- c:
			return true
		default:
		}
	}
	return false
}

func (s *tcpServer) assignPending() {
	out := s.pending[:0]
	for _, c := range s.pending {
		if c.State() == conn.StateClosed {
			continue
		}
		if !s.tryAssign(c) {
			out = append(out, c)
		}
	}
	s.pending = out
}

// destroy removes a connection object and closes the supervisor's socket.
func (s *tcpServer) destroy(c *conn.TCPConn) {
	s.supMgr.Remove(c)
	s.table.Remove(c)
}

// idleCheck performs the supervisor's half of idle management: destroy
// connections the workers have returned, once the additional grace period
// has elapsed.
func (s *tcpServer) idleCheck(now time.Time) {
	grace := s.sub.cfg.SupervisorGrace
	expired := s.supMgr.Expired(now, func(c *conn.TCPConn, now time.Time) bool {
		return c.State() == conn.StateWorkerReturned && !now.Before(c.Deadline().Add(grace))
	})
	for _, c := range expired {
		s.table.Remove(c)
	}
}

// --- worker side ---

func (w *tcpWorker) run() {
	defer w.srv.wg.Done()
	ticker := time.NewTicker(w.srv.sub.cfg.IdleCheckInterval)
	defer ticker.Stop()
	for {
		sweep := false
		select {
		case c := <-w.newConns:
			w.adopt(c)
		case ev := <-w.events:
			w.handleEvent(ev)
		case <-ticker.C:
			sweep = true
		case <-w.srv.closed:
			if w.cache != nil {
				w.cache.Close()
			}
			return
		}
		// Like the supervisor, each worker checks its owned connections on
		// every loop iteration ("even the worker processes examined every
		// connection they owned"). The fd cache is swept only on the
		// periodic tick — it is worker-private and cheap to keep.
		w.idleCheck(time.Now(), sweep)
	}
}

// adopt takes ownership of a connection: only this worker will read it.
func (w *tcpWorker) adopt(c *conn.TCPConn) {
	c.SetOwner(w.id)
	w.owned[c.ID()] = c
	w.localMgr.Add(c)
	go w.reader(c)
}

// reader is the per-connection read pump feeding the worker's single event
// loop; message processing still happens serially on the worker, so the
// one-process-per-worker discipline holds. With read-pausing enabled the
// pump additionally implements connection-level backpressure (Shen &
// Schulzrinne): while the owning worker's event queue is at its budget the
// reader stops reading, unread bytes accumulate in the socket buffer, and
// the kernel's flow control throttles the sender.
func (w *tcpWorker) reader(c *conn.TCPConn) {
	if err := w.srv.sub.handshakeAccepted(c); err != nil {
		// A failed handshake takes the same exit as EOF/reset: the event
		// loop returns the connection and the supervisor destroys it, so the
		// fd and the connection object are reclaimed without a special path.
		select {
		case w.events <- workerEvent{c: c}:
		case <-w.srv.closed:
		}
		return
	}
	ctrl := w.srv.sub.ctrl
	pausing := ctrl.PausesReads()
	budget := ctrl.QueueBudget()
	for {
		if pausing && len(w.events) >= budget {
			ctrl.NoteReadPause()
			for len(w.events) >= budget {
				select {
				case <-w.srv.closed:
					return
				case <-time.After(time.Millisecond):
				}
			}
		}
		m, err := c.Stream().ReadMessage()
		if err != nil {
			select {
			case w.events <- workerEvent{c: c}:
			case <-w.srv.closed:
			}
			return
		}
		select {
		case w.events <- workerEvent{c: c, m: m}:
		case <-w.srv.closed:
			return
		}
	}
}

func (w *tcpWorker) handleEvent(ev workerEvent) {
	c := ev.c
	if ev.m == nil {
		// Reader terminated. If the connection was still active this is a
		// peer close/reset: return it and tell the supervisor to destroy.
		if c.MarkWorkerReturned() {
			w.forget(c)
			select {
			case w.srv.retired <- c:
			case <-w.srv.closed:
			}
		}
		return
	}
	if c.State() != conn.StateActive {
		ev.m.Release()
		return // message raced with our idle return; drop as OpenSER would
	}
	now := time.Now()
	// The time between the reader's parse and this worker picking the event
	// up is queue wait — the gap a traced timeline must account for.
	trace.Of(ev.m).Gap(trace.StageQueue, now)
	// The first traced request on a TLS connection inherits the handshake
	// that preceded it (negative Start offset: the cost was paid before the
	// request's first byte parsed).
	if end, d, ok := c.TakeHandshake(); ok {
		trace.Of(ev.m).Add(trace.StageHandshake, end.Add(-d), d)
	}
	c.Touch(now, w.srv.sub.cfg.IdleTimeout)
	w.localMgr.Touch(c)
	// Admission control runs before transaction and database work; the
	// queue depth doubles as the threshold policy's per-worker load signal.
	if !w.srv.sub.admit(w.sender, ev.m, c, len(w.events)) {
		ev.m.Release()
		return
	}
	w.srv.sub.handleTimed(w.srv.engine, w.sender, ev.m, c)
	// The engine retained the message if it needed it; the worker is done.
	ev.m.Release()
}

func (w *tcpWorker) forget(c *conn.TCPConn) {
	delete(w.owned, c.ID())
	w.localMgr.Remove(c)
}

// idleCheck is the worker's half of idle management: close and return
// descriptors for connections idle past the timeout. The strategy (full
// scan vs priority queue) is the Figure 5 variable.
func (w *tcpWorker) idleCheck(now time.Time, sweep bool) {
	for _, c := range w.localMgr.Expired(now, func(c *conn.TCPConn, _ time.Time) bool {
		return c.Owner() == w.id
	}) {
		if c.MarkWorkerReturned() {
			delete(w.owned, c.ID())
			// "Closing the worker's descriptor": stop reading. The blocked
			// reader is unblocked via a read deadline and exits.
			_ = c.Stream().SetReadDeadline(time.Now())
		}
	}
	if sweep && w.cache != nil {
		w.cache.Sweep()
	}
}

// tcpSender implements proxy.Sender with the §3.1 send rules.
type tcpSender struct {
	w *tcpWorker
}

func (ts *tcpSender) ToOrigin(origin any, m *sipmsg.Message) error {
	c, ok := origin.(*conn.TCPConn)
	if !ok {
		return fmt.Errorf("core: TCP origin is %T", origin)
	}
	return ts.sendOnConn(c, m)
}

func (ts *tcpSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	// Prefer the connection the binding was registered over (OpenSER's
	// connection reuse): its remote address is the binding source.
	if b.Source != "" {
		if c := ts.w.srv.table.Lookup(b.Source); c != nil && c.State() == conn.StateActive {
			return ts.sendOnConn(c, m)
		}
	}
	return ts.ToAddr(b.Transport, b.Contact.HostPort(), m)
}

func (ts *tcpSender) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	if c := ts.w.srv.table.Lookup(hostport); c != nil && c.State() == conn.StateActive {
		return ts.sendOnConn(c, m)
	}
	// No usable connection: the worker establishes one (OpenSER's
	// tcpconn_connect) and hands it to the supervisor for tracking; the
	// dialing worker owns reads.
	sc, hs, err := ts.w.srv.sub.dialStream(hostport)
	if err != nil {
		return err
	}
	if hs > 0 {
		now := time.Now()
		trace.Of(m).Add(trace.StageHandshake, now.Add(-hs), hs)
	}
	c := ts.w.srv.table.Insert(sc, ts.w.srv.sub.cfg.IdleTimeout)
	ts.w.adopt(c)
	select {
	case ts.w.srv.adopted <- c:
	case <-ts.w.srv.closed:
	}
	return ts.sendOnConn(c, m)
}

// sendOnConn delivers a message on a specific connection following the
// architecture's descriptor rules: owners write directly; everyone else
// consults the fd cache (when enabled) and otherwise performs the blocking
// supervisor IPC — and, in the baseline, closes the descriptor right after
// sending, which is the behaviour Figure 4 indicts.
func (ts *tcpSender) sendOnConn(c *conn.TCPConn, m *sipmsg.Message) error {
	w := ts.w
	if c.Owner() == w.id {
		if err := ipc.DirectHandle(c).Send(m); err != nil {
			return err
		}
		c.Touch(time.Now(), w.srv.sub.cfg.IdleTimeout)
		w.localMgr.Touch(c)
		return nil
	}
	if w.srv.sub.tls != nil || w.srv.sub.streamEng != nil {
		// TLS and the io_uring engine both break the fd-passing model: the
		// connection's stream state (record-layer crypto for TLS; ring
		// registration and buffered completion segments for engine conns)
		// lives in this process's user space, so a duplicated descriptor in
		// another worker would desynchronize the stream. Non-owner sends are
		// pinned to the shared connection object instead of going through
		// the fd cache or the supervisor fabric — the send lock serializes
		// writers, and tls.pinned_sends / uring.pinned_sends measure how
		// often the architecture's fd economy is bypassed.
		if w.srv.sub.tls != nil {
			w.srv.sub.tlsPinned.Inc()
		} else {
			w.srv.sub.uringPinned.Inc()
		}
		if err := ipc.DirectHandle(c).Send(m); err != nil {
			return err
		}
		c.Touch(time.Now(), w.srv.sub.cfg.IdleTimeout)
		return nil
	}
	if w.cache != nil {
		tFd := time.Now()
		if h := w.cache.Get(c.ID()); h != nil {
			trace.Of(m).Span(trace.StageFDCache, tFd)
			err := h.Send(m)
			if err == nil {
				c.Touch(time.Now(), w.srv.sub.cfg.IdleTimeout)
				return nil
			}
			w.cache.Invalidate(c.ID())
			var stalled *ipc.TimeoutError
			if errors.As(err, &stalled) {
				// The peer stopped reading and the socket has been shut down:
				// a fresh descriptor for it would only fail again.
				return err
			}
		}
	}
	tIPC := time.Now()
	h, err := w.srv.fabric.RequestFD(w.id, c)
	trace.Of(m).Span(trace.StageFDIPC, tIPC)
	if err != nil {
		return err
	}
	if err := h.Send(m); err != nil {
		h.Close()
		return err
	}
	c.Touch(time.Now(), w.srv.sub.cfg.IdleTimeout)
	if w.cache != nil {
		w.cache.Put(c.ID(), h)
	} else {
		h.Close()
	}
	return nil
}

func (s *tcpServer) Addr() string                { return s.ln.Addr().String() }
func (s *tcpServer) Engine() *proxy.Engine       { return s.engine }
func (s *tcpServer) Profile() *metrics.Profile   { return s.sub.prof }
func (s *tcpServer) Location() *location.Service { return s.sub.loc }
func (s *tcpServer) DB() *userdb.DB              { return s.sub.db }
func (s *tcpServer) Timers() timerlist.Scheduler { return s.sub.timers }
func (s *tcpServer) Tracer() *trace.Recorder     { return s.sub.rec }

// ConnCount reports live connection objects (exported for tests and the
// experiment harness via type assertion).
func (s *tcpServer) ConnCount() int { return s.table.Len() }

func (s *tcpServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ln.Close()
		s.fabric.Close()
		for _, c := range s.table.Snapshot() {
			s.table.Remove(c)
		}
	})
	s.wg.Wait()
	s.sub.close()
	return nil
}
