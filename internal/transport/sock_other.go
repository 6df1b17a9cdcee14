//go:build !linux

package transport

import (
	"fmt"
	"net"
	"syscall"
)

// reusePortAvailable is false here, so ListenUDPGroup returns one socket
// and never calls the two functions below.
const reusePortAvailable = false

func setReusePort(*net.UDPConn) error {
	return fmt.Errorf("transport: SO_REUSEPORT unavailable")
}

func listenReusePort(*net.UDPAddr) (*net.UDPConn, error) {
	return nil, fmt.Errorf("transport: SO_REUSEPORT unavailable")
}

// socketBufferSizes is unavailable portably; callers treat zeroes as
// "unknown" and fall back to reporting the requested values.
func socketBufferSizes(c syscall.Conn) (rcv, snd int) { return 0, 0 }
