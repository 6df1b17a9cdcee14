//go:build unix

package sipmsg

import (
	"io"
	"os"
	"syscall"
)

// rawConnOf returns r's descriptor for the buffer-free wait, or nil when r
// has none.
func rawConnOf(r io.Reader) syscall.RawConn {
	sc, ok := r.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return rc
}

// rawRead is the RawConn read callback: one read(2) into the free tail.
// It borrows a buffer for the call and, when the socket has nothing to
// read and no partial message is pending, gives it back before the reader
// parks, so a quiet connection waits holding nothing.
func (r *Reader) rawRead(fd uintptr) bool {
	if r.buf == nil {
		r.borrow()
	}
	for {
		n, err := syscall.Read(int(fd), (*r.buf)[r.tail:])
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			if r.head == r.tail {
				r.Release()
			}
			return false
		case nil:
			r.rn = n
		default:
			r.rerr = os.NewSyscallError("read", err)
		}
		return true
	}
}
