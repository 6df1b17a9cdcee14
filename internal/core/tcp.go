package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gosip/internal/conn"
	"gosip/internal/connmgr"
	"gosip/internal/fdcache"
	"gosip/internal/ipc"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// tcpServer is the §3.1 architecture: one supervisor goroutine owns
// connection management (accept, assignment, fd service, idle close);
// workers own reads on their assigned connections and must obtain
// descriptors through the IPC fabric for every other connection.
type tcpServer struct {
	*streamBase
	fabric *ipc.Fabric
	supMgr connmgr.Manager

	workers []*tcpWorker

	accepts chan *conn.TCPConn // acceptor → supervisor
	adopted chan *conn.TCPConn // worker-dialed conns → supervisor tracking
	retired chan *conn.TCPConn // dead conns → supervisor destroy

	// pending holds accepted connections waiting for a worker with mailbox
	// room. Buffering here instead of blocking on a worker's mailbox is the
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

// tcpWorker models one OpenSER worker process. The process is its lock: a
// reader runs a message on its own goroutine while holding mu, so at most
// one message per worker is in process and the fd cache and IPC port have
// one holder at a time, as a process's private memory would. The worker's
// goroutine only adopts connections from the supervisor's mailbox and runs
// the periodic idle check.
type tcpWorker struct {
	*streamWorker
	srv *tcpServer

	mu sync.Mutex
	// waiting counts readers blocked on mu: the worker's queue, and the
	// admission load signal.
	waiting atomic.Int32

	cache *fdcache.Cache // nil when the Figure 4 fix is disabled
}

func newTCPServer(cfg Config) (Server, error) {
	base, err := newStreamBase(cfg)
	if err != nil {
		return nil, err
	}
	fabric, err := ipc.NewFabric(cfg.IPCMode, cfg.Workers, cfg.IPCTimeout, base.prof)
	if err != nil {
		base.ln.Close()
		base.close()
		return nil, err
	}
	// The supervisor's baseline strategy scans the shared table under its
	// global lock (the paper's §5.2 pathology); the pqueue fix replaces it.
	var supMgr connmgr.Manager = connmgr.NewTableScanner(base.table, base.prof)
	if cfg.ConnMgr == connmgr.KindPQueue {
		pq := connmgr.NewPQueue(base.prof)
		pq.ReinsertDelay = cfg.supervisorGrace()
		supMgr = pq
	}
	srv := &tcpServer{
		streamBase: base,
		fabric:     fabric,
		supMgr:     supMgr,
		accepts:    make(chan *conn.TCPConn, 64),
		adopted:    make(chan *conn.TCPConn, 64),
		retired:    make(chan *conn.TCPConn, 256),
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	var workers []*streamWorker
	for i := 0; i < cfg.Workers; i++ {
		w := &tcpWorker{srv: srv}
		w.streamWorker = base.newWorker(i, w)
		if cfg.FDCache {
			w.cache = fdcache.New(cfg.FDCacheCapacity, base.prof)
		}
		srv.workers = append(srv.workers, w)
		workers = append(workers, w.streamWorker)
	}
	srv.wg.Add(1)
	go srv.supervisor()
	base.start(srv.toSupervisor, workers)
	return srv, nil
}

// toSupervisor feeds an accepted connection to the supervisor, which alone
// decides ownership ("the supervisor accepts all connections on behalf of
// the server"). In OpenSER the supervisor itself sits in accept(); splitting
// the blocking accept from the supervisor loop is the Go equivalent, with
// the handoff channel playing the listen backlog.
func (s *tcpServer) toSupervisor(c *conn.TCPConn) bool {
	select {
	case s.accepts <- c:
		return true
	case <-s.closed:
		return false
	}
}

// supervisor is the single connection-management process.
func (s *tcpServer) supervisor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.IdleCheckInterval)
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
	if p := s.cfg.SupervisorPenalty; p > 0 {
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
	grace := s.cfg.supervisorGrace()
	expired := s.supMgr.Expired(now, func(c *conn.TCPConn, now time.Time) bool {
		return c.State() == conn.StateWorkerReturned && !now.Before(c.Deadline().Add(grace))
	})
	for _, c := range expired {
		s.table.Remove(c)
	}
}

// --- worker side ---

// idle is the worker loop's idle check, taken as the process: under mu.
func (w *tcpWorker) idle(now time.Time, sweep bool) {
	w.mu.Lock()
	w.idleCheck(now, sweep)
	w.mu.Unlock()
}

// handle runs one message as the worker process: under the worker's lock,
// followed by the idle check OpenSER's workers make on every loop iteration
// ("even the worker processes examined every connection they owned") — a
// per-message cost Figure 5 measures. The wait for the lock is this
// architecture's queue.
func (w *tcpWorker) handle(c *conn.TCPConn, m *sipmsg.Message) {
	w.waiting.Add(1)
	w.mu.Lock()
	queued := int(w.waiting.Add(-1))
	now := time.Now()
	trace.Of(m).Gap(trace.StageQueue, now)
	w.srv.process(w.streamWorker, c, m, queued, now)
	w.idleCheck(time.Now(), false)
	w.mu.Unlock()
}

// drop is the reader's exit, an event like a message: if the connection
// was still active this is a peer close, reset or failed handshake, so
// return it and tell the supervisor to destroy it.
func (w *tcpWorker) drop(c *conn.TCPConn) {
	w.mu.Lock()
	returned := c.MarkWorkerReturned()
	if returned {
		w.mgr.Remove(c)
	}
	w.idleCheck(time.Now(), false)
	w.mu.Unlock()
	if returned {
		select {
		case w.srv.retired <- c:
		case <-w.srv.closed:
		}
	}
}

// idleCheck is the worker's half of idle management, run with mu held:
// close and return descriptors for connections idle past the timeout. The
// strategy (full scan vs priority queue) is the Figure 5 variable; the fd
// cache is swept only on the periodic tick.
func (w *tcpWorker) idleCheck(now time.Time, sweep bool) {
	for _, c := range w.expired(now) {
		if c.MarkWorkerReturned() {
			// "Closing the worker's descriptor": stop reading. The blocked
			// reader is unblocked via a read deadline and exits.
			_ = c.Stream().SetReadDeadline(time.Now())
		}
	}
	if sweep && w.cache != nil {
		w.cache.Sweep()
	}
}

// adoptDialed gives a connection this worker dialed to the dialing worker,
// which owns its reads, and to the supervisor for tracking.
func (w *tcpWorker) adoptDialed(c *conn.TCPConn) {
	w.adopt(c)
	select {
	case w.srv.adopted <- c:
	case <-w.srv.closed:
	}
}

// sendOnConn delivers a message on a specific connection following the
// architecture's descriptor rules: owners write directly; everyone else
// consults the fd cache (when enabled) and otherwise performs the blocking
// supervisor IPC — and, in the baseline, closes the descriptor right after
// sending, which is the behaviour Figure 4 indicts.
func (w *tcpWorker) sendOnConn(c *conn.TCPConn, m *sipmsg.Message) error {
	if c.Owner() == w.id {
		return w.writeDirect(c, m)
	}
	if w.srv.tls != nil {
		// TLS breaks the fd-passing model: the connection's record-layer
		// crypto state lives in this process's user space, so a duplicated
		// descriptor in another worker would desynchronize the stream.
		// Non-owner sends are pinned to the shared connection object instead
		// of going through the fd cache or the supervisor fabric — the send
		// lock serializes writers, and tls.pinned_sends measures how often
		// the architecture's fd economy is bypassed.
		w.srv.tlsPinned.Inc()
		return w.writeDirect(c, m)
	}
	if w.cache != nil {
		tFd := time.Now()
		if h := w.cache.Get(c.ID()); h != nil {
			trace.Of(m).Span(trace.StageFDCache, tFd)
			err := h.Send(m)
			if err == nil {
				c.Touch(time.Now(), w.srv.cfg.IdleTimeout)
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
	c.Touch(time.Now(), w.srv.cfg.IdleTimeout)
	if w.cache != nil {
		w.cache.Put(c.ID(), h)
	} else {
		h.Close()
	}
	return nil
}

// Close shuts the fabric down before the connections, so a handler blocked
// in RequestFD returns, and closes the fd caches once no handler can touch
// them.
func (s *tcpServer) Close() error {
	s.shutdown(s.fabric.Close, func() {
		for _, w := range s.workers {
			if w.cache != nil {
				w.cache.Close()
			}
		}
	})
	return nil
}
