package core

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// udpServer is the §3.2 architecture: all worker goroutines are symmetric,
// each looping receive → process → forward, and sends need no coordination
// because UDP writes are message-atomic.
//
// Each worker owns one socket of a SO_REUSEPORT group bound to the listen
// address, so the kernel picks the worker for every datagram — hashing its
// source 4-tuple, which keeps one peer's datagrams on one worker and in
// order — and no two workers ever queue on one descriptor's lock. Where
// SO_REUSEPORT is unavailable the workers share a single socket. Every
// datagram costs one recvfrom in and one sendto out.
type udpServer struct {
	*substrate
	socks  []*transport.UDPSocket
	faults *faultGate

	wg     sync.WaitGroup
	closed chan struct{}
}

// resolveCache memoizes name → UDP address resolution. One cache is
// shared by every sender of a server, so the hit rate is unaffected by
// which worker handles a message. Literal "ip:port" targets — a binding's
// Source, a Via sent-by — never reach it: only names need a lookup.
type resolveCache struct {
	mu    sync.RWMutex
	addrs map[string]netip.AddrPort

	hits   *metrics.Counter
	misses *metrics.Counter
}

func newResolveCache(prof *metrics.Profile) *resolveCache {
	return &resolveCache{
		addrs:  make(map[string]netip.AddrPort),
		hits:   prof.Counter(metrics.MetricResolveHit),
		misses: prof.Counter(metrics.MetricResolveMiss),
	}
}

// maxResolveCache bounds the resolve cache: legitimate workloads touch a
// handful of peer names, so the bound only matters under hostile traffic
// that varies the destination per message.
const maxResolveCache = 4096

func (rc *resolveCache) resolve(hostport string) (netip.AddrPort, error) {
	rc.mu.RLock()
	a, ok := rc.addrs[hostport]
	rc.mu.RUnlock()
	if ok {
		rc.hits.Inc()
		return a, nil
	}
	rc.misses.Inc()
	ua, err := net.ResolveUDPAddr("udp", hostport)
	if err != nil {
		return netip.AddrPort{}, err
	}
	a = ua.AddrPort()
	rc.mu.Lock()
	if len(rc.addrs) >= maxResolveCache {
		// Evict one arbitrary entry; random replacement keeps the hot
		// working set resident with high probability.
		for k := range rc.addrs {
			delete(rc.addrs, k)
			break
		}
	}
	rc.addrs[hostport] = a
	rc.mu.Unlock()
	return a, nil
}

// udpSender implements proxy.Sender for one worker (or the timer process):
// it is bound to that worker's socket and is safe for use from any
// goroutine.
type udpSender struct {
	sock   *transport.UDPSocket
	faults *faultGate
	cache  *resolveCache
}

// send is the single exit for all UDP transmissions: the message is
// rendered into a pooled buffer that goes straight to the socket and is
// recycled on return.
func (s *udpSender) send(m *sipmsg.Message, addr netip.AddrPort) error {
	if s.faults.dropTx() {
		return nil // silently lost in the simulated network
	}
	wire := m.RenderWire()
	defer wire.Release()
	return s.sock.WriteTo(wire.Bytes, addr)
}

func (s *udpSender) ToOrigin(origin any, m *sipmsg.Message) error {
	addr, ok := origin.(netip.AddrPort)
	if !ok {
		return fmt.Errorf("core: UDP origin is %T", origin)
	}
	return s.send(m, addr)
}

func (s *udpSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	// Over UDP the registered source address is directly reachable; fall
	// back to the contact for bindings installed out of band.
	target := b.Source
	if target == "" {
		target = b.Contact.HostPort()
	}
	return s.ToAddr(b.Transport, target, m)
}

// ToAddr sends to a literal "ip:port" as it stands — parsed in place, no
// lock, no map — and looks a name up through the shared cache.
func (s *udpSender) ToAddr(_ string, hostport string, m *sipmsg.Message) error {
	addr, err := netip.ParseAddrPort(hostport)
	if err != nil {
		if addr, err = s.cache.resolve(hostport); err != nil {
			return err
		}
	}
	return s.send(m, addr)
}

func newUDPServer(cfg Config) (Server, error) {
	sub, err := newSubstrate(cfg)
	if err != nil {
		return nil, err
	}
	socks, err := transport.ListenUDPGroup(cfg.Addr, cfg.Workers, transport.UDPOptions{Profile: sub.prof})
	if err != nil {
		sub.close()
		return nil, err
	}

	local := socks[0].LocalAddr()
	sub.bind(transport.UDP, local.String(), local.Addr().String(), int(local.Port()))
	faults := newFaultGate(cfg.Faults)
	cache := newResolveCache(sub.prof)

	srv := &udpServer{
		substrate: sub,
		socks:     socks,
		faults:    faults,
		closed:    make(chan struct{}),
	}

	// The timer process sends retransmissions from outside any worker loop.
	// It shares the first worker's socket.
	sub.engine.SetTimerSender(&udpSender{sock: socks[0], faults: faults, cache: cache})

	for i := 0; i < cfg.Workers; i++ {
		sock := socks[i%len(socks)]
		srv.wg.Add(1)
		go srv.worker(sock, &udpSender{sock: sock, faults: faults, cache: cache})
	}
	return srv, nil
}

// process is the datagram preamble to the pipeline: fault gate and parse.
// pkt.Data is consumed before process returns (the parser copies). pkt.Src
// is a value; a request's is boxed as its origin, which the engine may keep
// as the transaction's, and a response, which is routed by its Via and
// needs no origin, costs no box at all. UDP has no per-worker queue, so the
// load signal is 0.
func (s *udpServer) process(sender *udpSender, pkt transport.Packet) {
	if s.faults.dropRx() {
		return
	}
	m, ok := s.parseOrCount(pkt.Data)
	if !ok {
		return
	}
	var origin any
	if m.IsRequest {
		origin = pkt.Src
	}
	s.substrate.process(sender, m, origin, 0)
}

// worker is one symmetric UDP worker process: receive, process, forward.
func (s *udpServer) worker(sock *transport.UDPSocket, sender *udpSender) {
	defer s.wg.Done()
	for {
		pkt, err := sock.ReadPacket()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if isClosedErr(err) {
				return
			}
			continue
		}
		s.process(sender, pkt)
		sock.Release(pkt)
	}
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// ShardCount reports the number of listening sockets.
func (s *udpServer) ShardCount() int { return len(s.socks) }

func (s *udpServer) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
		close(s.closed)
	}
	var err error
	for _, sock := range s.socks {
		if e := sock.Close(); e != nil && err == nil {
			err = e
		}
	}
	s.wg.Wait()
	s.close()
	return err
}
