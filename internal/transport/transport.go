// Package transport provides the thin network layer under the SIP proxy:
// UDP sockets for symmetric workers (OpenSER's UDP architecture relies on
// the kernel handing each datagram to exactly one process blocked in
// recvfrom), and a framed, write-locked wrapper for TCP stream
// connections.
//
// ListenUDPGroup binds one SO_REUSEPORT socket per worker on Linux, so the
// kernel picks the worker and no two goroutines ever queue on one
// descriptor's lock. Every datagram costs one syscall each way — one
// recvfrom, one sendto — as in the paper.
//
// UDP addresses are netip.AddrPort values throughout — a packet's source,
// a datagram's destination, the bound address — so receiving and sending a
// datagram allocates nothing: no *net.UDPAddr per datagram, and nothing
// for the garbage collector to trace when a caller keeps one. IPv4 peers
// of a dual-stack socket appear as plain IPv4 addresses, not 4-in-6.
package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
)

// Kind names a transport protocol.
type Kind string

// Supported transports.
const (
	UDP Kind = "UDP"
	TCP Kind = "TCP"
)

// MaxDatagram is the largest UDP datagram the proxy accepts. SIP messages
// in this workload are well under the conventional 1500-byte MTU, but the
// limit accommodates path-MTU-free loopback experiments.
const MaxDatagram = 64 << 10

// Packet is one datagram received on a UDP socket.
type Packet struct {
	Data []byte
	Src  netip.AddrPort

	// buf is the pool slot backing Data; nil for a packet built by hand.
	buf *[]byte
}

// UDPOptions configures a UDP SIP socket. The zero value is an
// uninstrumented socket.
type UDPOptions struct {
	// Profile receives the socket's syscall and pool instrumentation.
	// Nil is valid: counters become no-ops.
	Profile *metrics.Profile
}

// UDPSocket wraps a net.UDPConn for SIP use. ReadPacket may be called from
// many goroutines at once, but they queue on the descriptor's read lock:
// one parks in the poller while the rest wait their turn. Give each reader
// its own socket from ListenUDPGroup instead.
type UDPSocket struct {
	conn *net.UDPConn

	bufPool sync.Pool // of *[]byte, each MaxDatagram long

	recvSyscalls *metrics.Counter
	recvMsgs     *metrics.Counter
	sendSyscalls *metrics.Counter
	sendMsgs     *metrics.Counter
	poolDropped  *metrics.Counter
}

// ListenUDP opens a UDP SIP socket on addr (e.g. "127.0.0.1:0") with the
// baseline (uninstrumented, unshared) configuration.
func ListenUDP(addr string) (*UDPSocket, error) {
	return ListenUDPOptions(addr, UDPOptions{})
}

// ListenUDPOptions opens a UDP SIP socket with explicit tuning.
func ListenUDPOptions(addr string, o UDPOptions) (*UDPSocket, error) {
	socks, err := ListenUDPGroup(addr, 1, o)
	if err != nil {
		return nil, err
	}
	return socks[0], nil
}

// ListenUDPGroup opens n UDP SIP sockets bound to one address, so each
// reader can own one: with SO_REUSEPORT the kernel hashes every datagram to
// one socket by its source 4-tuple, so one peer's datagrams always reach
// the same socket. Where SO_REUSEPORT is unavailable it returns a single
// socket, which the readers then share.
//
// The first socket binds without the option and sets it only after bind;
// the rest then join its port. Setting it before the first bind would let
// an explicit addr join another process's reuseport group instead of
// failing with EADDRINUSE, and let a ":0" bind land on a port such a group
// already holds.
func ListenUDPGroup(addr string, n int, o UDPOptions) ([]*UDPSocket, error) {
	if n < 1 || !reusePortAvailable {
		n = 1
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	first, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %q: %w", addr, err)
	}
	conns := []*net.UDPConn{first}
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	if n > 1 {
		if err := setReusePort(first); err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: SO_REUSEPORT on %s: %w", first.LocalAddr(), err)
		}
	}
	for len(conns) < n {
		c, err := listenReusePort(first.LocalAddr().(*net.UDPAddr))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: listen udp %s (socket %d of %d): %w", first.LocalAddr(), len(conns)+1, n, err)
		}
		conns = append(conns, c)
	}
	socks := make([]*UDPSocket, 0, n)
	for _, c := range conns {
		socks = append(socks, newUDPSocket(c, o))
	}
	return socks, nil
}

// newUDPSocket wraps a bound connection.
func newUDPSocket(c *net.UDPConn, o UDPOptions) *UDPSocket {
	s := &UDPSocket{conn: c}
	s.bufPool.New = func() any {
		b := make([]byte, MaxDatagram)
		return &b
	}
	if p := o.Profile; p != nil {
		s.recvSyscalls = p.Counter(metrics.MetricUDPRecvSyscalls)
		s.recvMsgs = p.Counter(metrics.MetricUDPRecvMsgs)
		s.sendSyscalls = p.Counter(metrics.MetricUDPSendSyscalls)
		s.sendMsgs = p.Counter(metrics.MetricUDPSendMsgs)
		s.poolDropped = p.Counter(metrics.MetricUDPPoolDropped)
	}
	return s
}

// ReusePortAvailable reports whether SO_REUSEPORT is supported on this
// platform, i.e. whether ListenUDPGroup can return more than one socket.
func ReusePortAvailable() bool { return reusePortAvailable }

// LocalAddr returns the bound address.
func (s *UDPSocket) LocalAddr() netip.AddrPort {
	return unmap(s.conn.LocalAddr().(*net.UDPAddr).AddrPort())
}

// ReadPacket blocks for the next datagram. The returned Packet owns its
// buffer; call Release when done to recycle it. Neither the read nor the
// source address allocates.
func (s *UDPSocket) ReadPacket() (Packet, error) {
	bp := s.bufPool.Get().(*[]byte)
	n, src, err := s.conn.ReadFromUDPAddrPort(*bp)
	if err != nil {
		s.bufPool.Put(bp)
		return Packet{}, err
	}
	s.recvSyscalls.Inc()
	s.recvMsgs.Inc()
	return Packet{Data: (*bp)[:n], Src: unmap(src), buf: bp}, nil
}

// Release returns a packet's buffer to the pool. Packets whose buffer the
// pool cannot recycle (produced elsewhere, or resized by the caller) are
// counted as dropped rather than silently discarded; a small hand-built
// packet is a no-op.
func (s *UDPSocket) Release(p Packet) {
	if p.buf != nil {
		if cap(*p.buf) == MaxDatagram {
			s.bufPool.Put(p.buf)
			return
		}
		s.poolDropped.Inc()
		return
	}
	if p.Data != nil && cap(p.Data) == MaxDatagram {
		// A pool-sized buffer with no pool slot: constructed by hand (tests)
		// or copied between sockets. It cannot re-enter the pool.
		s.poolDropped.Inc()
	}
}

// WriteTo sends a datagram. UDP sends are atomic at the message level, so
// no locking is needed — the property the paper credits for UDP's
// synchronization-free send path.
func (s *UDPSocket) WriteTo(data []byte, dst netip.AddrPort) error {
	s.sendSyscalls.Inc()
	s.sendMsgs.Inc()
	_, err := s.conn.WriteToUDPAddrPort(data, unmap(dst))
	return err
}

// unmap turns a 4-in-6 address into plain IPv4: how a dual-stack socket
// reports an IPv4 peer, and a form an AF_INET socket cannot send to.
func unmap(ap netip.AddrPort) netip.AddrPort {
	if addr := ap.Addr(); addr.Is4In6() {
		return netip.AddrPortFrom(addr.Unmap(), ap.Port())
	}
	return ap
}

// SetReadDeadline bounds blocking ReadPacket calls; the zero time removes
// the bound. Synchronous clients (the phone simulator) use this for
// retransmission timeouts.
func (s *UDPSocket) SetReadDeadline(t time.Time) error {
	return s.conn.SetReadDeadline(t)
}

// Close closes the socket, unblocking all readers.
func (s *UDPSocket) Close() error { return s.conn.Close() }

// StreamConn wraps a TCP connection with SIP message framing on the read
// side and a mutex on the write side. The read side must only be used by
// one goroutine (the owning worker); the write side may be shared, which
// models OpenSER's "a connection may be written to by different sending
// processes" with user-level locking for atomic sends.
//
// The read side holds a pooled buffer only while a message is partly
// received (see sipmsg.Reader): a quiet plain-TCP connection waits for
// readability holding none. The reading goroutine gives back whatever it
// still holds with ReleaseReadBuffer when it stops reading; Close does not,
// since it may run while a read is in progress.
type StreamConn struct {
	conn net.Conn
	rd   *sipmsg.Reader

	wmu        sync.Mutex
	writeCalls *metrics.Counter
	writeMsgs  *metrics.Counter
}

// NewStreamConn wraps an established TCP connection.
func NewStreamConn(c net.Conn) *StreamConn {
	return &StreamConn{conn: c, rd: sipmsg.NewReader(c)}
}

// InstrumentWrites wires write syscall/message counters (nil-safe).
// Call before the connection is shared between goroutines.
func (c *StreamConn) InstrumentWrites(calls, msgs *metrics.Counter) {
	c.writeCalls = calls
	c.writeMsgs = msgs
}

// SetParseObserver forwards fn to the framing reader: it receives each
// delivered message and its parse-only time (blocked socket reads
// excluded). Set it before the connection's reader goroutine starts.
func (c *StreamConn) SetParseObserver(fn func(*sipmsg.Message, time.Duration)) {
	c.rd.SetParseObserver(fn)
}

// ReadMessage blocks until a complete SIP message arrives.
func (c *StreamConn) ReadMessage() (*sipmsg.Message, error) {
	return c.rd.ReadMessage()
}

// ReleaseReadBuffer returns the read side's buffer to the pool, dropping
// any partial message. Only the reading goroutine may call it, once it has
// stopped reading.
func (c *StreamConn) ReleaseReadBuffer() { c.rd.Release() }

// WriteMessage serializes and sends m atomically with respect to other
// writers of this StreamConn.
func (c *StreamConn) WriteMessage(m *sipmsg.Message) error {
	return c.WriteRaw(m.Serialize())
}

// WriteRaw sends pre-serialized bytes atomically, one write call per
// message. data is not retained past the call.
func (c *StreamConn) WriteRaw(data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.writeCalls.Inc()
	c.writeMsgs.Inc()
	_, err := c.conn.Write(data)
	return err
}

// SetReadDeadline forwards to the underlying connection.
func (c *StreamConn) SetReadDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// RemoteAddr returns the peer address.
func (c *StreamConn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// LocalAddr returns the local address.
func (c *StreamConn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// NetConn exposes the wrapped net.Conn (needed for fd extraction when
// passing sockets between "processes" over SCM_RIGHTS).
func (c *StreamConn) NetConn() net.Conn { return c.conn }

// Close closes the connection.
func (c *StreamConn) Close() error { return c.conn.Close() }

// DialTCP connects to a SIP server over TCP.
func DialTCP(addr string) (*StreamConn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial tcp %q: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// SIP messages are small and latency-sensitive.
		_ = tc.SetNoDelay(true)
	}
	return NewStreamConn(c), nil
}
