// Package ipc implements the supervisor↔worker interprocess communication
// used by OpenSER's TCP architecture: a worker that must forward a SIP
// message on a connection it does not own requests the socket file
// descriptor from the supervisor and blocks until it arrives (Ram et al.
// §3.1). The paper identifies the frequency and cost of this round-trip as
// the largest TCP overhead (~12% of busy time in the baseline).
//
// Two interchangeable fabrics are provided:
//
//   - ModeUnix: a real AF_UNIX socketpair per worker with SCM_RIGHTS file
//     descriptor passing — the exact mechanism OpenSER uses, paying genuine
//     kernel costs (three fd duplications and closes per request).
//   - ModeChan: a channel-based round-trip with identical blocking
//     semantics, used on non-Linux platforms, in unit tests, and as an
//     ablation that separates supervisor-serialization cost from syscall
//     cost.
//
// In both modes every request flows through a single supervisor loop, so
// the supervisor serializes fd service exactly as a single process would.
package ipc

import (
	"errors"
	"fmt"
	"net"
	"time"

	"gosip/internal/conn"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// Mode selects the IPC mechanism.
type Mode string

// Available fabrics.
const (
	ModeChan Mode = "chan"
	ModeUnix Mode = "unix"
)

// Errors returned by the fabric.
var (
	ErrConnGone = errors.New("ipc: connection no longer exists")
	ErrShutdown = errors.New("ipc: fabric shut down")
)

// TimeoutError reports that a worker abandoned an fd request because the
// supervisor did not answer within the fabric's per-request deadline. A
// stalled or saturated supervisor previously blocked the worker goroutine
// forever; with the deadline the worker gets this typed error and the proxy
// answers the affected request with 503 instead of hanging.
type TimeoutError struct {
	Worker   int
	Deadline time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("ipc: worker %d fd request timed out after %v", e.Worker, e.Deadline)
}

// Timeout marks the error as a timeout (the net.Error convention), so
// callers can test errors.As(err, &netErr) && netErr.Timeout().
func (e *TimeoutError) Timeout() bool { return true }

// Handle is a worker's process-local descriptor for a connection: the
// analogue of the fd a worker receives from the supervisor. In unix mode it
// wraps a genuinely duplicated socket that must be closed after use; in
// chan mode it references the shared socket object.
type Handle struct {
	Conn   *conn.TCPConn
	writer rawWriter
	closer func() error
}

// rawWriter sends one serialized SIP message with a single write call.
type rawWriter interface {
	WriteRaw([]byte) error
}

// Send serializes m and writes it atomically under the connection's shared
// send lock (OpenSER's user-level lock for shared connections).
func (h *Handle) Send(m *sipmsg.Message) error {
	wire := m.RenderWire()
	defer wire.Release()
	return h.SendRaw(wire.Bytes)
}

// SendRaw writes pre-serialized bytes under the connection's send lock.
//
// When the handle's writer is the shared StreamConn with group-commit
// coalescing armed, the outer send lock is skipped: WriteRaw is then
// itself atomic, and taking sendMu first would serialize every writer
// before it could reach the coalescing path — the reason -tcp-coalesce
// measured as an honest null end-to-end (msgs/syscall pinned at 1.0) while
// the transport-level benchmark batched 30+ messages per writev. The
// lifecycle check SendLocked performs is preserved as a racy fast-fail;
// the race is benign because closing the socket makes the write itself
// return an error, the same outcome SendLocked's check produces. Unix-mode
// handles wrap a private duplicated descriptor, not the shared StreamConn,
// so they keep the locked path (their writes must still be serialized
// per-message against other holders of duplicated fds).
func (h *Handle) SendRaw(data []byte) error {
	if sc, ok := h.writer.(*transport.StreamConn); ok && sc.CoalesceActive() {
		if h.Conn.State() == conn.StateClosed {
			return conn.ErrClosed
		}
		return sc.WriteRaw(data)
	}
	return h.Conn.SendLocked(func() error { return h.writer.WriteRaw(data) })
}

// Close releases the worker's descriptor. In unix mode this closes the
// duplicated fd — the behaviour whose cost the fd cache (Figure 4)
// eliminates by keeping handles open. Close is idempotent.
func (h *Handle) Close() error {
	if h.closer == nil {
		return nil
	}
	c := h.closer
	h.closer = nil
	return c()
}

// Valid reports whether the handle still refers to a live connection. The
// fd cache checks this before reuse so a cached handle can never write to a
// connection object that the supervisor has destroyed.
func (h *Handle) Valid() bool {
	return h.Conn != nil && h.Conn.State() != conn.StateClosed
}

// Request is one worker→supervisor fd request as seen by the supervisor.
type Request struct {
	ConnID conn.ID
	Worker int

	reply chan reply // chan mode
}

type reply struct {
	handle *Handle
	err    error
}

// Fabric carries fd requests from workers to the supervisor and handles
// (or errors) back. The supervisor owns the receive side: it must drain
// Requests() and answer each with Respond.
type Fabric struct {
	mode     Mode
	timeout  time.Duration // per-request deadline; <=0 blocks forever
	requests chan Request
	workers  []*workerPort
	done     chan struct{}

	ipcTime       *metrics.Timer
	ipcCount      *metrics.Counter
	svTime        *metrics.Timer
	ipcHist       *metrics.Histogram
	svHist        *metrics.Histogram
	timeouts      *metrics.Counter
	handlesIssued *metrics.Counter
	handlesClosed *metrics.Counter
}

// workerPort is one worker's endpoint. Only unix mode populates the socket
// pair; chan mode replies over the per-request channel. stale counts
// enqueued-then-abandoned requests whose responses are still in flight in
// the socketpair; it is touched only from RequestFD, and each worker ID is
// used by exactly one goroutine (the worker's event loop), so no lock is
// needed.
type workerPort struct {
	unix  *unixPair // nil in chan mode
	stale int
}

// NewFabric creates a fabric for nWorkers workers. timeout bounds each
// worker's blocking fd request (<=0 disables the deadline and restores
// block-forever semantics). Unix mode requires a platform with AF_UNIX fd
// passing (see fdpass_linux.go); constructing it elsewhere returns an
// error.
func NewFabric(mode Mode, nWorkers int, timeout time.Duration, profile *metrics.Profile) (*Fabric, error) {
	f := &Fabric{
		mode:    mode,
		timeout: timeout,
		// The request queue is bounded like a socketpair buffer; workers
		// block when the supervisor falls behind, exactly the backpressure
		// the paper describes.
		requests:      make(chan Request, nWorkers),
		workers:       make([]*workerPort, nWorkers),
		done:          make(chan struct{}),
		ipcTime:       profile.Timer(metrics.MetricIPCTime),
		ipcCount:      profile.Counter(metrics.MetricIPCCount),
		svTime:        profile.Timer(metrics.MetricSupervisorWork),
		ipcHist:       profile.Histogram(metrics.StageFDIPC),
		svHist:        profile.Histogram(metrics.StageSupervisor),
		timeouts:      profile.Counter(metrics.MetricIPCTimeouts),
		handlesIssued: profile.Counter(metrics.MetricIPCHandlesIssued),
		handlesClosed: profile.Counter(metrics.MetricIPCHandlesClosed),
	}
	for i := range f.workers {
		f.workers[i] = &workerPort{}
		if mode == ModeUnix {
			p, err := newUnixPair()
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("ipc: worker %d socketpair: %w", i, err)
			}
			f.workers[i].unix = p
		}
	}
	return f, nil
}

// Mode returns the fabric's mechanism.
func (f *Fabric) Mode() Mode { return f.mode }

// Requests returns the stream of worker fd requests for the supervisor
// loop to drain.
func (f *Fabric) Requests() <-chan Request { return f.requests }

// RequestFD is the worker side: having looked the connection object up in
// the shared table, the worker asks the supervisor for a descriptor for it
// and blocks until the supervisor responds — bounded by the fabric's
// per-request deadline, after which the worker gets a *TimeoutError
// instead of hanging behind a stalled supervisor. The blocked time is
// accounted to the IPC timer — the quantity the paper profiles at ~12% of
// busy time in the baseline.
func (f *Fabric) RequestFD(workerID int, c *conn.TCPConn) (*Handle, error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		f.ipcTime.AddDuration(d)
		f.ipcHist.Record(d)
	}()
	f.ipcCount.Inc()

	var deadline time.Time
	var timeoutC <-chan time.Time
	if f.timeout > 0 {
		deadline = start.Add(f.timeout)
		timer := time.NewTimer(f.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}

	req := Request{ConnID: c.ID(), Worker: workerID}
	if f.mode == ModeChan {
		req.reply = make(chan reply, 1)
	}
	select {
	case f.requests <- req:
	case <-f.done:
		return nil, ErrShutdown
	case <-timeoutC:
		// Never enqueued: the supervisor's queue stayed saturated for the
		// whole deadline. Nothing will ever answer this request.
		f.timeouts.Inc()
		return nil, &TimeoutError{Worker: workerID, Deadline: f.timeout}
	}

	if f.mode == ModeChan {
		select {
		case r := <-req.reply:
			if r.err != nil {
				return nil, r.err
			}
			return f.issue(r.handle), nil
		case <-f.done:
			return nil, ErrShutdown
		case <-timeoutC:
			// Enqueued but unanswered. The supervisor's eventual reply lands
			// in the buffered per-request channel and is garbage collected;
			// chan-mode handles wrap the shared socket object, so no
			// descriptor is at stake.
			f.timeouts.Inc()
			return nil, &TimeoutError{Worker: workerID, Deadline: f.timeout}
		}
	}

	// Unix mode: block reading our socketpair for the fd, bounded by the
	// deadline. Responses arrive in request order, so after a timeout the
	// abandoned request's response is still owed on the pair: it is counted
	// in port.stale and drained — its duplicated descriptor closed — before
	// a later request's reply is accepted.
	port := f.workers[workerID]
	for {
		h, err := port.unix.recvHandle(deadline)
		if err != nil {
			if isTimeoutErr(err) {
				port.stale++
				f.timeouts.Inc()
				return nil, &TimeoutError{Worker: workerID, Deadline: f.timeout}
			}
			if errors.Is(err, ErrConnGone) {
				if port.stale > 0 {
					port.stale-- // a stale request's conn-gone answer
					continue
				}
				return nil, err
			}
			return nil, err
		}
		if port.stale > 0 {
			port.stale--
			_ = h.Close() // stale response: close the duplicated fd, keep waiting
			continue
		}
		h.Conn = c
		return f.issue(h), nil
	}
}

// issue wraps a handle granted by the supervisor so its eventual Close is
// counted: handles_issued minus handles_closed is the live-handle balance
// that must read zero after shutdown (the fd-leak metric).
func (f *Fabric) issue(h *Handle) *Handle {
	f.handlesIssued.Inc()
	orig := h.closer
	h.closer = func() error {
		f.handlesClosed.Inc()
		if orig != nil {
			return orig()
		}
		return nil
	}
	return h
}

func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Respond is the supervisor side: it answers req with the connection's
// socket (duplicating the fd in unix mode) or with err. It must be called
// exactly once per request received from Requests(). Time spent here is
// accounted as supervisor work.
func (f *Fabric) Respond(req Request, c *conn.TCPConn, err error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		f.svTime.AddDuration(d)
		f.svHist.Record(d)
	}()

	if f.mode == ModeChan {
		if err != nil {
			req.reply <- reply{err: err}
			return
		}
		req.reply <- reply{handle: &Handle{Conn: c, writer: c.Stream()}}
		return
	}
	port := f.workers[req.Worker].unix
	if err != nil {
		port.sendErr()
		return
	}
	if perr := port.sendConnFD(c); perr != nil {
		// Failing to pass the fd is reported to the worker as conn-gone;
		// the worker will re-resolve or drop the message.
		port.sendErr()
	}
}

// Close shuts the fabric down, unblocking all workers.
func (f *Fabric) Close() {
	select {
	case <-f.done:
		return
	default:
		close(f.done)
	}
	for _, w := range f.workers {
		if w != nil && w.unix != nil {
			w.unix.close()
		}
	}
}

// DirectHandle builds a handle for a connection the worker already owns
// (its own fd): no IPC involved, mirroring the owning worker writing
// replies straight to its connection. Also used by the shared-address-space
// (Section 6) architecture where every worker can reach every socket.
func DirectHandle(c *conn.TCPConn) *Handle {
	return &Handle{Conn: c, writer: c.Stream()}
}
