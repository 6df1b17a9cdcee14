//go:build linux

package transport

import (
	"context"
	"net"
	"syscall"
)

const reusePortAvailable = true

// soReusePort is SO_REUSEPORT, absent from the syscall package's constant
// set; the value is uniform across Linux architectures.
const soReusePort = 0xf

// reusePortOn sets SO_REUSEPORT on the socket behind c.
func reusePortOn(c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	}); err != nil {
		return err
	}
	return serr
}

// setReusePort sets SO_REUSEPORT on an already bound socket, which opens
// its port to later listenReusePort binds from the same user.
func setReusePort(c *net.UDPConn) error {
	rc, err := c.SyscallConn()
	if err != nil {
		return err
	}
	return reusePortOn(rc)
}

// listenReusePort binds a UDP socket with SO_REUSEPORT set before bind, so
// it joins the sockets already bound to ua and the kernel hashes datagrams
// across them by source 4-tuple.
func listenReusePort(ua *net.UDPAddr) (*net.UDPConn, error) {
	lc := net.ListenConfig{
		Control: func(_, _ string, c syscall.RawConn) error { return reusePortOn(c) },
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", ua.String())
	if err != nil {
		return nil, err
	}
	return pc.(*net.UDPConn), nil
}
