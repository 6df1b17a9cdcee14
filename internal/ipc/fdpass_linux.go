//go:build linux

package ipc

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"syscall"
	"time"
	"unsafe"

	"gosip/internal/conn"
)

// unixPair is one worker's AF_UNIX socketpair to the supervisor, carrying
// socket file descriptors via SCM_RIGHTS — the same mechanism OpenSER
// uses. The supervisor writes to sup; the worker reads from wrk. Each end
// has one user at a time (the supervisor loop; the holder of the worker's
// lock), so each end's scratch buffers are reused across requests without
// a lock of their own.
type unixPair struct {
	sup *net.UnixConn
	wrk *net.UnixConn

	// Supervisor end: one SCM_RIGHTS message whose descriptor slot is
	// overwritten per request, and the Control callback that sends it,
	// bound once so a request allocates no closure.
	rights  []byte
	pass    func(fd uintptr)
	passErr error

	// Worker end: the response byte and the control buffer recvmsg fills.
	one [1]byte
	oob []byte
}

// The one-byte payloads of a response: a descriptor follows, or the
// connection is gone.
var (
	respFD   = []byte{1}
	respGone = []byte{0}
)

func newUnixPair() (*unixPair, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	sup, err := fdToUnixConn(fds[0])
	if err != nil {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
		return nil, err
	}
	wrk, err := fdToUnixConn(fds[1])
	if err != nil {
		sup.Close()
		syscall.Close(fds[1])
		return nil, err
	}
	p := &unixPair{
		sup:    sup,
		wrk:    wrk,
		rights: syscall.UnixRights(0),
		oob:    make([]byte, syscall.CmsgSpace(4)),
	}
	p.pass = func(fd uintptr) {
		binary.NativeEndian.PutUint32(p.rights[syscall.CmsgLen(0):], uint32(fd))
		_, _, p.passErr = p.sup.WriteMsgUnix(respFD, p.rights, nil)
	}
	return p, nil
}

// fdToUnixConn wraps one end of the socketpair, once per fabric, so that
// waiting on it parks a goroutine in the poller rather than a thread.
func fdToUnixConn(fd int) (*net.UnixConn, error) {
	f := os.NewFile(uintptr(fd), "ipc-socketpair")
	defer f.Close() // FileConn duplicates; release the original
	c, err := net.FileConn(f)
	if err != nil {
		return nil, err
	}
	uc, ok := c.(*net.UnixConn)
	if !ok {
		c.Close()
		return nil, fmt.Errorf("ipc: socketpair produced %T", c)
	}
	return uc, nil
}

// sendConnFD passes the connection's own descriptor to the worker: one
// sendmsg with SCM_RIGHTS, inside SyscallConn().Control so the descriptor
// cannot be closed under it. The kernel installs a duplicate in the
// receiver, so no dup is needed here, and nothing reads or changes the
// socket's file status flags: File() and Fd() would put the shared open
// file description into blocking mode under its owning reader.
func (p *unixPair) sendConnFD(c *conn.TCPConn) error {
	sc, ok := c.Stream().NetConn().(syscall.Conn)
	if !ok {
		return fmt.Errorf("ipc: connection has no descriptor to pass: %T", c.Stream().NetConn())
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return fmt.Errorf("ipc: pass fd: %w", err)
	}
	if err := rc.Control(p.pass); err != nil {
		return fmt.Errorf("ipc: pass fd: %w", err)
	}
	if p.passErr != nil {
		return fmt.Errorf("ipc: pass fd: %w", p.passErr)
	}
	return nil
}

// sendErr tells the worker the connection is gone.
func (p *unixPair) sendErr() {
	_, _, _ = p.sup.WriteMsgUnix(respGone, nil, nil)
}

// recvFD blocks for the supervisor's next response — until deadline if
// non-zero — and returns the descriptor recvmsg installed, which the caller
// now owns. Exactly one byte is read per response. SOCK_STREAM would
// normally let byte payloads coalesce, but each 1-byte payload carries (or
// delimits) one SCM_RIGHTS control message, and the kernel never merges
// reads across a control-message boundary, so one ReadMsgUnix consumes
// exactly one response; the fabric counts abandoned requests and drains
// their late responses before accepting a newer one.
//
// A raw descriptor has no finalizer behind it, so a response that is not
// exactly "one descriptor, whole" is rejected with every descriptor it did
// carry closed here: errBadResponse when a response was consumed, any other
// error when the socketpair itself failed.
func (p *unixPair) recvFD(deadline time.Time) (int, error) {
	if err := p.wrk.SetReadDeadline(deadline); err != nil {
		return -1, fmt.Errorf("ipc: set read deadline: %w", err)
	}
	n, oobn, flags, _, err := p.wrk.ReadMsgUnix(p.one[:], p.oob)
	if err != nil {
		return -1, fmt.Errorf("ipc: recv fd: %w", err)
	}
	fds, perr := parseRights(p.oob[:oobn])
	switch {
	case n != 1:
		err = fmt.Errorf("ipc: short response (%d bytes)", n)
	case flags&syscall.MSG_CTRUNC != 0:
		err = fmt.Errorf("%w: control message truncated", errBadResponse)
	case perr != nil:
		err = fmt.Errorf("%w: parse control message: %v", errBadResponse, perr)
	case p.one[0] == 0 && len(fds) == 0:
		return -1, ErrConnGone
	case p.one[0] == 0 || len(fds) != 1:
		err = fmt.Errorf("%w: status %d with %d descriptors", errBadResponse, p.one[0], len(fds))
	default:
		return fds[0], nil
	}
	for _, fd := range fds {
		_ = closeFD(fd)
	}
	return -1, err
}

// parseRights returns every descriptor the SCM_RIGHTS messages in oob carry.
func parseRights(oob []byte) ([]int, error) {
	if len(oob) == 0 {
		return nil, nil
	}
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return nil, err
	}
	var fds []int
	for i := range msgs {
		got, err := syscall.ParseUnixRights(&msgs[i])
		if err != nil {
			continue // not SCM_RIGHTS: carries no descriptor
		}
		if fds == nil {
			fds = got // the one message of a well-formed response: no copy
		} else {
			fds = append(fds, got...)
		}
	}
	return fds, nil
}

func (p *unixPair) close() {
	p.sup.Close()
	p.wrk.Close()
}

func closeFD(fd int) error {
	if err := syscall.Close(fd); err != nil {
		return fmt.Errorf("ipc: close passed fd: %w", err)
	}
	return nil
}

// writeFD writes one whole message on a passed descriptor: one write(2)
// when the socket buffer has room, which is the paper's cost. The caller
// holds the connection's send lock.
//
// The descriptor shares the socket's non-blocking open file description, so
// a full buffer shows as a short write or EAGAIN. The message is then
// finished here, still under the send lock so it stays contiguous in the
// stream, waiting for writability for at most the fabric's deadline in
// total. A peer that leaves a send unwritable that long has stopped
// reading: the worker gets a *TimeoutError instead of parking behind it,
// and the socket is shut down — a half-written message has already broken
// the stream's framing, and every later send would cost another worker the
// full deadline. The shutdown reaches the owning reader as EOF, which
// retires the connection the usual way.
func (f *Fabric) writeFD(h *Handle, data []byte) error {
	var deadline time.Time
	for {
		n, err := syscall.Write(h.fd, data)
		if n > 0 {
			data = data[n:]
		}
		switch err {
		case nil:
			if len(data) == 0 {
				return nil
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			wait := time.Duration(-1)
			if f.timeout > 0 {
				if deadline.IsZero() {
					deadline = time.Now().Add(f.timeout)
				}
				if wait = time.Until(deadline); wait <= 0 {
					f.writeTimeouts.Inc()
					_ = syscall.Shutdown(h.fd, syscall.SHUT_RDWR)
					return &TimeoutError{Worker: h.worker, Deadline: f.timeout, Write: true}
				}
			}
			f.writeWaits.Inc()
			if err := pollWritable(h.fd, wait); err != nil {
				return fmt.Errorf("ipc: wait writable: %w", err)
			}
		default:
			return fmt.Errorf("ipc: write passed fd: %w", err)
		}
	}
}

// pollWritable blocks until fd is writable or in error (the next write
// reports which), wait has passed, or a signal arrived; the caller retries
// the write and keeps the clock. A negative wait never times out. ppoll
// rather than select(2): descriptor numbers run past FD_SETSIZE.
func pollWritable(fd int, wait time.Duration) error {
	const pollOut = 0x4
	pfd := struct {
		fd      int32
		events  int16
		revents int16
	}{fd: int32(fd), events: pollOut}
	var ts *syscall.Timespec
	if wait >= 0 {
		t := syscall.NsecToTimespec(int64(wait))
		ts = &t
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_PPOLL,
		uintptr(unsafe.Pointer(&pfd)), 1, uintptr(unsafe.Pointer(ts)), 0, 0, 0)
	if errno != 0 && errno != syscall.EINTR {
		return errno
	}
	return nil
}
