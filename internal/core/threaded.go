package core

import (
	"sync/atomic"
	"time"

	"gosip/internal/conn"
	"gosip/internal/sipmsg"
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
	*streamWorker
	// inPipeline counts this worker's connections' messages in process: the
	// admission load signal.
	inPipeline atomic.Int32
}

func newThreadedServer(cfg Config) (Server, error) {
	base, err := newStreamBase(cfg)
	if err != nil {
		return nil, err
	}
	srv := &threadedServer{streamBase: base}
	var workers []*streamWorker
	for i := 0; i < cfg.Workers; i++ {
		w := &threadedWorker{}
		w.streamWorker = base.newWorker(i, w)
		srv.workers = append(srv.workers, w)
		workers = append(workers, w.streamWorker)
	}
	base.start(srv.dispatch, workers)
	return srv, nil
}

// dispatch assigns a connection to a worker round-robin, skipping full
// mailboxes and blocking on the next worker in turn when all are full. With
// no supervisor in the loop there is no two-party deadlock to avoid.
func (s *threadedServer) dispatch(c *conn.TCPConn) bool {
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

// handle runs the pipeline on the reader's goroutine, concurrently with the
// worker's other connections: there is no queue, so no queue span either.
func (w *threadedWorker) handle(c *conn.TCPConn, m *sipmsg.Message) {
	queued := int(w.inPipeline.Add(1)) - 1
	w.b.process(w.streamWorker, c, m, queued, time.Now())
	w.inPipeline.Add(-1)
}

// drop destroys a connection in one step: shared address space means no
// return-to-supervisor handshake.
func (w *threadedWorker) drop(c *conn.TCPConn) {
	w.mgr.Remove(c)
	w.b.table.Remove(c)
}

// idle closes and destroys the worker's idle connections; there is no fd
// cache to sweep.
func (w *threadedWorker) idle(now time.Time, _ bool) {
	for _, c := range w.expired(now) {
		_ = c.Stream().SetReadDeadline(time.Now())
		w.b.table.Remove(c)
	}
}

// sendOnConn writes any connection directly — the §6 payoff.
func (w *threadedWorker) sendOnConn(c *conn.TCPConn, m *sipmsg.Message) error {
	return w.writeDirect(c, m)
}

// adoptDialed keeps a dialed connection on the dialing worker.
func (w *threadedWorker) adoptDialed(c *conn.TCPConn) { w.adopt(c) }

func (s *threadedServer) Close() error {
	s.shutdown(nil, nil)
	return nil
}
