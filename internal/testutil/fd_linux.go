//go:build linux

package testutil

import "syscall"

// Nonblocking reports whether c's socket is in non-blocking mode, read with
// F_GETFL inside SyscallConn().Control — a look that cannot itself change
// the mode, unlike File().Fd(). The flag lives on the open file description,
// so every descriptor duplicated or passed from the socket shares it.
func Nonblocking(c syscall.Conn) (bool, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return false, err
	}
	var flags uintptr
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	}); err != nil {
		return false, err
	}
	if errno != 0 {
		return false, errno
	}
	return flags&syscall.O_NONBLOCK != 0, nil
}
