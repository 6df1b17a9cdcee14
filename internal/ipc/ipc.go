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
//     descriptor passing — the exact mechanism OpenSER uses, at OpenSER's
//     price: per request one sendmsg carrying the connection's own
//     descriptor, one recvmsg that installs the duplicate in the worker,
//     one write and one close on that duplicate. Nothing wraps the received
//     descriptor (no os.File, no net.Conn, no poller registration) and the
//     supervisor never dups or touches the mode of the socket it passes.
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

// TimeoutError reports that a worker gave up on the fabric's per-request
// deadline: either the supervisor did not answer an fd request in time, or
// (Write set) the peer behind a passed descriptor stopped reading and a send
// could not be finished. Both used to block the worker goroutine forever;
// with the deadline the worker gets this typed error and the proxy answers
// the affected request with 503 instead of hanging.
type TimeoutError struct {
	Worker   int
	Deadline time.Duration
	Write    bool // the deadline lapsed finishing a write, not waiting for the supervisor
}

func (e *TimeoutError) Error() string {
	op := "fd request"
	if e.Write {
		op = "write on a passed fd"
	}
	return fmt.Sprintf("ipc: worker %d %s timed out after %v", e.Worker, op, e.Deadline)
}

// Timeout marks the error as a timeout (the net.Error convention), so
// callers can test errors.As(err, &netErr) && netErr.Timeout().
func (e *TimeoutError) Timeout() bool { return true }

// Handle is a worker's process-local descriptor for a connection: the
// analogue of the fd a worker receives from the supervisor. In unix mode it
// is that fd — the raw descriptor recvmsg installed, written with write(2)
// and closed with close(2), nothing wrapped around it; in chan mode, and for
// a worker's own connections (DirectHandle), it references the shared socket
// object. A handle belongs to one worker goroutine.
type Handle struct {
	Conn *conn.TCPConn

	// stream is the shared socket object; nil when fd carries the sends.
	stream *transport.StreamConn
	// fabric is set on handles a supervisor granted: Close counts them in
	// its issued/closed ledger and, in unix mode, closes fd.
	fabric *Fabric
	worker int
	fd     int
	closed bool
}

// Send serializes m and writes it atomically under the connection's shared
// send lock (OpenSER's user-level lock for shared connections).
func (h *Handle) Send(m *sipmsg.Message) error {
	wire := m.RenderWire()
	defer wire.Release()
	return h.SendRaw(wire.Bytes)
}

// SendRaw writes pre-serialized bytes under the connection's send lock. On
// a closed handle it fails with conn.ErrClosed: the descriptor number may
// already name something else. The lock is what keeps a message whole
// against other holders of descriptors for the same socket, including
// across the EAGAIN slow path of a unix-mode handle's writeFD.
func (h *Handle) SendRaw(data []byte) error {
	if h.closed {
		return conn.ErrClosed
	}
	if h.stream == nil {
		return h.Conn.SendLocked(func() error { return h.fabric.writeFD(h, data) })
	}
	return h.Conn.SendLocked(func() error { return h.stream.WriteRaw(data) })
}

// Close releases the worker's descriptor. In unix mode this is the one
// close(2) of the passed fd — the behaviour whose cost the fd cache
// (Figure 4) eliminates by keeping handles open. Close is exactly-once: a
// second call must not close a number the kernel has since reused.
func (h *Handle) Close() error {
	if h.fabric == nil || h.closed {
		return nil
	}
	h.closed = true
	h.fabric.handlesClosed.Inc()
	if h.stream != nil {
		return nil
	}
	return closeFD(h.fd)
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

	reply chan error // chan mode: the supervisor's verdict (nil = granted)
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
	writeWaits    *metrics.Counter
	writeTimeouts *metrics.Counter
}

// workerPort is one worker's endpoint. Only unix mode populates the socket
// pair; chan mode replies over the per-request channel. stale counts
// enqueued-then-abandoned requests whose responses are still in flight in
// the socketpair; it is touched only from RequestFD, and each worker ID is
// used only by the holder of that worker's lock, so the port needs no lock
// of its own.
type workerPort struct {
	unix  *unixPair // nil in chan mode
	stale int
}

// NewFabric creates a fabric for nWorkers workers. timeout bounds each
// worker's blocking fd request and, in unix mode, each send that has to
// wait for a full socket buffer to drain (<=0 disables the deadline and
// restores block-forever semantics). Unix mode requires a platform with
// AF_UNIX fd passing (see fdpass_linux.go); constructing it elsewhere
// returns an error, as does any mode but ModeChan and ModeUnix.
func NewFabric(mode Mode, nWorkers int, timeout time.Duration, profile *metrics.Profile) (*Fabric, error) {
	if mode != ModeChan && mode != ModeUnix {
		return nil, fmt.Errorf("ipc: unknown mode %q", mode)
	}
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
		writeWaits:    profile.Counter(metrics.MetricIPCWriteWaits),
		writeTimeouts: profile.Counter(metrics.MetricIPCWriteTimeouts),
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
// busy time in the baseline. Every handle it returns is counted as issued;
// handles_issued minus handles_closed is the live-handle balance that must
// read zero after shutdown (the fd-leak metric).
func (f *Fabric) RequestFD(workerID int, c *conn.TCPConn) (*Handle, error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		f.ipcTime.AddDuration(d)
		f.ipcHist.Record(d)
	}()
	f.ipcCount.Inc()

	h := Handle{Conn: c, fabric: f, worker: workerID}
	req := Request{ConnID: c.ID(), Worker: workerID}
	var err error
	if f.mode == ModeChan {
		h.stream = c.Stream()
		err = f.requestChan(req)
	} else {
		h.fd, err = f.requestUnix(req, start)
	}
	if err != nil {
		return nil, err
	}
	f.handlesIssued.Inc()
	return &h, nil
}

// enqueue hands req to the supervisor, giving up at shutdown or when
// timeoutC fires: the supervisor's queue stayed saturated for the whole
// deadline and nothing will ever answer this request.
func (f *Fabric) enqueue(req Request, timeoutC <-chan time.Time) error {
	select {
	case f.requests <- req:
		return nil
	case <-f.done:
		return ErrShutdown
	case <-timeoutC:
		return f.timedOut(req)
	}
}

func (f *Fabric) timedOut(req Request) error {
	f.timeouts.Inc()
	return &TimeoutError{Worker: req.Worker, Deadline: f.timeout}
}

// requestChan is the channel round trip: the supervisor's verdict comes
// back on a per-request channel. An abandoned request's eventual reply
// lands in that buffered channel and is garbage collected; chan-mode
// handles reference the shared socket object, so no descriptor is at stake.
func (f *Fabric) requestChan(req Request) error {
	req.reply = make(chan error, 1)
	var timeoutC <-chan time.Time
	if f.timeout > 0 {
		timer := time.NewTimer(f.timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}
	if err := f.enqueue(req, timeoutC); err != nil {
		return err
	}
	select {
	case err := <-req.reply:
		return err
	case <-f.done:
		return ErrShutdown
	case <-timeoutC:
		return f.timedOut(req)
	}
}

// requestUnix is the socketpair round trip. The supervisor's queue holds a
// slot per worker, so the enqueue all but always succeeds at once and the
// deadline rides on the socketpair's read deadline alone; a timer is armed
// only when the queue is found saturated.
//
// Responses arrive in request order, so after a timeout the abandoned
// request's response is still owed on the pair: it is counted in port.stale
// and drained — its descriptor closed — before a later request's reply is
// accepted. A malformed response is drained the same way (recvFD has
// already closed whatever it carried).
func (f *Fabric) requestUnix(req Request, start time.Time) (int, error) {
	select {
	case f.requests <- req:
	default:
		var timeoutC <-chan time.Time
		if f.timeout > 0 {
			timer := time.NewTimer(f.timeout)
			defer timer.Stop()
			timeoutC = timer.C
		}
		if err := f.enqueue(req, timeoutC); err != nil {
			return -1, err
		}
	}
	var deadline time.Time
	if f.timeout > 0 {
		deadline = start.Add(f.timeout)
	}
	port := f.workers[req.Worker]
	for {
		fd, err := port.unix.recvFD(deadline)
		if err != nil {
			if isTimeoutErr(err) {
				port.stale++
				return -1, f.timedOut(req)
			}
			if !errors.Is(err, ErrConnGone) && !errors.Is(err, errBadResponse) {
				return -1, err // the socketpair itself failed: no response was consumed
			}
		}
		if port.stale == 0 {
			return fd, err
		}
		port.stale-- // a late answer to an abandoned request: nobody is waiting for it
		if err == nil {
			_ = closeFD(fd)
		}
	}
}

// errBadResponse marks a supervisor response that was read off the
// socketpair but rejected; every descriptor it carried has been closed.
var errBadResponse = errors.New("ipc: malformed fd response")

func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Respond is the supervisor side: it answers req with the connection's
// socket (passing its descriptor in unix mode) or with err. It must be
// called exactly once per request received from Requests(), and — the
// supervisor being one loop — never concurrently for the same worker. Time
// spent here is accounted as supervisor work.
func (f *Fabric) Respond(req Request, c *conn.TCPConn, err error) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		f.svTime.AddDuration(d)
		f.svHist.Record(d)
	}()

	if f.mode == ModeChan {
		req.reply <- err
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
	return &Handle{Conn: c, stream: c.Stream()}
}
