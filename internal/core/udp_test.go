package core

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"testing"
	"time"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

func newTestSender(t *testing.T) (*udpSender, *transport.UDPSocket) {
	t.Helper()
	sock, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	return &udpSender{sock: sock, cache: newResolveCache(metrics.NewProfile())}, sock
}

func udpTestMsg() *sipmsg.Message {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.OPTIONS,
		RequestURI: sipmsg.URI{Host: "x"},
		From:       sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "x"}, Params: map[string]string{"tag": "t"}},
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: "b", Host: "y"}},
		CallID:     sipmsg.NewCallID("x"),
		CSeq:       1,
		Via:        sipmsg.Via{Transport: "UDP", Host: "x", Port: 5060},
	})
}

func TestUDPSenderToOriginRejectsWrongType(t *testing.T) {
	s, _ := newTestSender(t)
	if err := s.ToOrigin("not-an-addr", udpTestMsg()); err == nil {
		t.Error("wrong origin type accepted")
	}
}

func TestUDPSenderResolveCache(t *testing.T) {
	s, _ := newTestSender(t)
	a1, err := s.cache.resolve("localhost:5060")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.cache.resolve("localhost:5060")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || !a1.Addr().IsLoopback() || a1.Port() != 5060 {
		t.Errorf("localhost:5060 resolved to %v, then %v", a1, a2)
	}
	if hits, misses := s.cache.hits.Value(), s.cache.misses.Value(); hits != 1 || misses != 1 {
		t.Errorf("%d hits, %d misses; want the second lookup served from the cache", hits, misses)
	}
	if _, err := s.cache.resolve("bad::addr::1:2:3:x"); err == nil {
		t.Error("bad address resolved")
	}
}

// TestUDPSenderLiteralSkipsResolveCache: a literal ip:port — a binding's
// Source, a Via sent-by — is sent to as it stands, so the resolve cache
// counts name lookups only; a name still resolves and still delivers.
func TestUDPSenderLiteralSkipsResolveCache(t *testing.T) {
	s, _ := newTestSender(t)
	peer, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	receive := func(what string) {
		t.Helper()
		peer.SetReadDeadline(time.Now().Add(2 * time.Second))
		pkt, err := peer.ReadPacket()
		if err != nil {
			t.Fatalf("%s: nothing arrived: %v", what, err)
		}
		peer.Release(pkt)
	}

	literal := peer.LocalAddr().String()
	if err := s.ToAddr("UDP", literal, udpTestMsg()); err != nil {
		t.Fatal(err)
	}
	receive("ToAddr " + literal)
	if err := s.ToBinding(location.Binding{Transport: "UDP", Source: literal}, udpTestMsg()); err != nil {
		t.Fatal(err)
	}
	receive("ToBinding with Source " + literal)
	if hits, misses := s.cache.hits.Value(), s.cache.misses.Value(); hits != 0 || misses != 0 {
		t.Errorf("literal sends counted %d resolve hits and %d misses, want 0 and 0", hits, misses)
	}

	name := fmt.Sprintf("localhost:%d", peer.LocalAddr().Port())
	if err := s.ToAddr("UDP", name, udpTestMsg()); err != nil {
		t.Fatal(err)
	}
	receive("ToAddr " + name)
	if misses := s.cache.misses.Value(); misses != 1 {
		t.Errorf("a name send counted %d resolve misses, want 1", misses)
	}
}

func TestUDPSenderToBindingPrefersSource(t *testing.T) {
	s, sock := newTestSender(t)
	peer, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	_ = sock

	b := location.Binding{
		Contact:   sipmsg.URI{User: "u", Host: "192.0.2.1", Port: 9}, // unreachable
		Transport: "UDP",
		Source:    peer.LocalAddr().String(), // reachable
	}
	if err := s.ToBinding(b, udpTestMsg()); err != nil {
		t.Fatalf("ToBinding: %v", err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := peer.ReadPacket(); err != nil {
		t.Fatalf("message did not reach the Source address: %v", err)
	}

	// Without a Source, the contact is used.
	b2 := location.Binding{
		Contact:   mustURI(t, "sip:u@"+peer.LocalAddr().String()),
		Transport: "UDP",
	}
	if err := s.ToBinding(b2, udpTestMsg()); err != nil {
		t.Fatalf("ToBinding contact: %v", err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := peer.ReadPacket(); err != nil {
		t.Fatalf("message did not reach the contact: %v", err)
	}
}

func mustURI(t *testing.T, s string) sipmsg.URI {
	t.Helper()
	u, err := sipmsg.ParseURI(s)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestIsClosedErr(t *testing.T) {
	if isClosedErr(nil) {
		t.Error("nil is not a closed error")
	}
	if isClosedErr(errors.New("boom")) {
		t.Error("arbitrary error misclassified")
	}
	// The real thing: a closed socket's read error.
	sock, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sock.Close()
	_, rerr := sock.ReadPacket()
	if rerr == nil || !isClosedErr(rerr) {
		t.Errorf("closed-socket error not recognized: %v", rerr)
	}
}

func TestUDPServerAddrIsResolvable(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 1})
	if _, err := net.ResolveUDPAddr("udp", srv.Addr()); err != nil {
		t.Errorf("Addr %q not resolvable: %v", srv.Addr(), err)
	}
}

// TestUDPServerSocketPerWorker: each worker owns one socket of a reuseport
// group, all bound to the one listen address, and calls complete across
// them.
func TestUDPServerSocketPerWorker(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 4})
	us := srv.(*udpServer)
	want := 4
	if !transport.ReusePortAvailable() {
		want = 1
	}
	if got := us.ShardCount(); got != want {
		t.Fatalf("ShardCount = %d, want %d", got, want)
	}
	for i, s := range us.socks {
		if got := s.LocalAddr().String(); got != srv.Addr() {
			t.Errorf("socket %d bound %s, server address %s", i, got, srv.Addr())
		}
	}
	res := runLoad(t, srv, transport.UDP, 4, 5, 0)
	assertClean(t, res, 20)
}

// TestUDPServerRefusesTakenPort: an explicit address whose port another
// reuseport group holds fails with EADDRINUSE instead of silently joining
// that group and receiving a share of its traffic.
func TestUDPServerRefusesTakenPort(t *testing.T) {
	if !transport.ReusePortAvailable() {
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	decoy, err := transport.ListenUDPGroup("127.0.0.1:0", 2, transport.UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range decoy {
		defer s.Close()
	}
	srv, err := New(Config{Arch: ArchUDP, Addr: decoy[0].LocalAddr().String()})
	if err == nil {
		srv.Close()
		t.Fatalf("server joined the reuseport group on %s", decoy[0].LocalAddr())
	}
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Errorf("New on a taken port: %v, want EADDRINUSE", err)
	}
}

// udpRegister renders a REGISTER of user from the client socket at la.
func udpRegister(la netip.AddrPort, user string, cseq int) []byte {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.REGISTER,
		RequestURI: sipmsg.URI{Host: testDomain},
		From: sipmsg.NameAddr{
			URI:    sipmsg.URI{User: user, Host: testDomain},
			Params: map[string]string{"tag": "order"},
		},
		To:      sipmsg.NameAddr{URI: sipmsg.URI{User: user, Host: testDomain}},
		CallID:  "order-" + user,
		CSeq:    uint32(cseq),
		Via:     sipmsg.Via{Transport: "UDP", Host: la.Addr().String(), Port: int(la.Port())},
		Contact: &sipmsg.NameAddr{URI: sipmsg.URI{User: user, Host: la.Addr().String(), Port: int(la.Port())}},
		Expires: 60,
	}).Serialize()
}

// TestUDPPipelinedOrder keeps 32 REGISTERs in flight from one peer socket
// until 200 are answered: the kernel hashes the peer to one socket and one
// worker, which answers in CSeq order. Workers sharing one socket would
// race each other and reorder.
func TestUDPPipelinedOrder(t *testing.T) {
	if !transport.ReusePortAvailable() {
		t.Skip("workers share one socket without SO_REUSEPORT")
	}
	const total, window = 200, 32
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 8})
	dst, err := netip.ParseAddrPort(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	send := func(cseq int) {
		if err := cli.WriteTo(udpRegister(cli.LocalAddr(), "user1", cseq), dst); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	for ; sent < window; sent++ {
		send(sent + 1)
	}
	cli.SetReadDeadline(time.Now().Add(20 * time.Second))
	for want := uint32(1); want <= total; want++ {
		pkt, err := cli.ReadPacket()
		if err != nil {
			t.Fatalf("response %d/%d: %v", want, total, err)
		}
		m, err := sipmsg.Parse(pkt.Data)
		cli.Release(pkt)
		if err != nil {
			t.Fatalf("response %d: %v", want, err)
		}
		seq, _, _ := m.CSeq()
		code := m.StatusCode
		m.Release()
		if seq != want {
			t.Fatalf("response %d answers CSeq %d", want, seq)
		}
		if code != sipmsg.StatusOK {
			t.Fatalf("CSeq %d answered %d", seq, code)
		}
		if sent < total {
			sent++
			send(sent)
		}
	}
}

// TestUDPServerCloseParked closes a server whose workers are all parked in
// a read after serving traffic: goroutines, descriptors and pooled messages
// return to where they started.
func TestUDPServerCloseParked(t *testing.T) {
	// "batch=0" names the one-datagram-per-syscall read loop, the only
	// UDP path; the subtest keeps that name so test selections stay valid.
	t.Run("batch=0", func(t *testing.T) {
		// Start the runtime's poller first so its descriptors predate the
		// count.
		if s, err := transport.ListenUDP("127.0.0.1:0"); err == nil {
			s.Close()
		}
		goroutines := runtime.NumGoroutine()
		fds := testutil.OpenFDs(t)
		pooled := sipmsg.PoolOutstanding()

		srv, err := New(Config{Arch: ArchUDP, Workers: 8, Stateful: true, Domain: testDomain})
		if err != nil {
			t.Fatal(err)
		}
		srv.DB().ProvisionN(8, testDomain)
		cli, err := transport.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dst := srv.(*udpServer).socks[0].LocalAddr()
		for i := 0; i < 8; i++ {
			if err := cli.WriteTo(udpRegister(cli.LocalAddr(), fmt.Sprintf("user%d", i), 1), dst); err != nil {
				t.Fatal(err)
			}
			cli.SetReadDeadline(time.Now().Add(5 * time.Second))
			pkt, err := cli.ReadPacket()
			if err != nil {
				t.Fatalf("REGISTER %d: %v", i, err)
			}
			cli.Release(pkt)
		}
		cli.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}

		testutil.CheckGoroutines(t, goroutines)
		for deadline := time.Now().Add(2 * time.Second); testutil.OpenFDs(t) != fds && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		testutil.CheckFDs(t, fds)
		if got := sipmsg.PoolOutstanding(); got != pooled {
			t.Errorf("%d pooled messages outstanding after Close, %d before", got, pooled)
		}
	})
}

// TestUDPSendAllocs pins the steady-state UDP send path at zero
// allocations: the message renders into a pooled buffer, a literal
// destination is parsed in place, and the socket write takes the netip
// value as it is.
func TestUDPSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	s, _ := newTestSender(t)
	sink, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	dst := sink.LocalAddr().String()
	m := udpTestMsg()
	// Warm the render buffer pool.
	if err := s.ToAddr("UDP", dst, m); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if err := s.ToAddr("UDP", dst, m); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("UDP send allocates %.1f/op, want 0", got)
	}
	// ToOrigin takes the source address a receive boxed and must be free too.
	addr := any(sink.LocalAddr())
	if got := testing.AllocsPerRun(500, func() {
		if err := s.ToOrigin(addr, m); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("ToOrigin allocates %.1f/op, want 0", got)
	}
}
