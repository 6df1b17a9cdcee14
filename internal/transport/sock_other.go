//go:build !linux

package transport

import (
	"fmt"
	"net"
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
