package core

import (
	"net/netip"
	"strconv"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// rawUDPClient is a bare UDP endpoint for driving the server without the
// phone's retry/backoff machinery in the way.
type rawUDPClient struct {
	sock  *transport.UDPSocket
	proxy netip.AddrPort
}

func newRawUDPClient(t *testing.T, proxyAddr string) *rawUDPClient {
	t.Helper()
	sock, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	dst, err := netip.ParseAddrPort(proxyAddr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawUDPClient{sock: sock, proxy: dst}
}

func (c *rawUDPClient) invite(t *testing.T, callee, callID string) {
	t.Helper()
	la := c.sock.LocalAddr()
	from := sipmsg.NameAddr{
		URI:    sipmsg.URI{User: "rawcaller", Host: testDomain},
		Params: map[string]string{"tag": "raw-" + callID},
	}
	req := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.INVITE,
		RequestURI: sipmsg.URI{User: callee, Host: testDomain},
		From:       from,
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: callee, Host: testDomain}},
		CallID:     callID,
		CSeq:       1,
		Via:        sipmsg.Via{Transport: "UDP", Host: la.Addr().String(), Port: int(la.Port())},
		Contact:    &sipmsg.NameAddr{URI: sipmsg.URI{User: "rawcaller", Host: la.Addr().String(), Port: int(la.Port())}},
	})
	if err := c.sock.WriteTo(req.Serialize(), c.proxy); err != nil {
		t.Fatal(err)
	}
}

// awaitResponse reads datagrams until a response for callID with a status in
// want arrives, and returns it.
func (c *rawUDPClient) awaitResponse(t *testing.T, callID string, want ...int) *sipmsg.Message {
	t.Helper()
	c.sock.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		pkt, err := c.sock.ReadPacket()
		if err != nil {
			t.Fatalf("awaiting response for %s (want %v): %v", callID, want, err)
		}
		m, err := sipmsg.Parse(pkt.Data)
		c.sock.Release(pkt)
		if err != nil || !m.IsResponse() || m.CallID() != callID {
			continue
		}
		for _, code := range want {
			if m.StatusCode == code {
				return m
			}
		}
	}
}

// TestUDPOverloadAdmissionRejects drives the threshold policy directly: with
// a one-transaction budget and an unresponsive callee pinning that budget,
// the next INVITE must be answered 503 with a Retry-After header before any
// proxy work is done for it.
func TestUDPOverloadAdmissionRejects(t *testing.T) {
	srv := startServer(t, Config{
		Arch:    ArchUDP,
		Workers: 2,
		Overload: overload.Config{
			Policy:     overload.PolicyThreshold,
			MaxPending: 1,
			RetryAfter: 2 * time.Second,
		},
	})

	// An unresponsive callee: a bare socket whose binding is installed
	// directly, so the forwarded INVITE's transaction stays pending forever.
	sink, err := transport.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	sa := sink.LocalAddr()
	srv.Location().Register("sink@"+testDomain, location.Binding{
		Contact:   sipmsg.URI{User: "sink", Host: sa.Addr().String(), Port: int(sa.Port())},
		Transport: string(transport.UDP),
	}, time.Hour, time.Now())

	cl := newRawUDPClient(t, srv.Addr())

	// INVITE #1 occupies the whole pending budget. The 100 Trying is sent
	// after the server transaction exists, so once it arrives the budget is
	// known to be spent.
	cl.invite(t, "sink", "overload-call-1")
	cl.awaitResponse(t, "overload-call-1", sipmsg.StatusTrying)

	// INVITE #2 must be shed at admission.
	cl.invite(t, "sink", "overload-call-2")
	resp := cl.awaitResponse(t, "overload-call-2", sipmsg.StatusServiceUnavail)
	ra, ok := resp.Get("Retry-After")
	if !ok || ra == "" {
		t.Fatal("503 rejection carries no Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", ra)
	}
	if got := srv.Profile().Counter(metrics.MetricOverloadRejected).Value(); got == 0 {
		t.Error("rejection not counted")
	}
	if got := srv.Profile().Counter(metrics.MetricOverloadAdmitted).Value(); got == 0 {
		t.Error("admitted INVITE not counted")
	}
}

// TestIPCTimeoutAnswers503 stalls the supervisor (SupervisorPenalty far past
// IPCTimeout) and asserts workers give up on their fd requests within the
// deadline and answer 503 instead of hanging: the run finishes fast, calls
// fail rather than block, and the timeout counter is hot.
func TestIPCTimeoutAnswers503(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchTCP,
		Workers:           4,
		IPCMode:           ipc.ModeChan,
		ConnMgr:           connmgr.KindScan,
		SupervisorPenalty: time.Second,
		IPCTimeout:        100 * time.Millisecond,
	})
	start := time.Now()
	// 6 pairs so at least one caller/callee pair lands on different workers
	// and needs IPC; 1 call each keeps the stalled run short.
	res := runLoad(t, srv, transport.TCP, 6, 1, 0)
	elapsed := time.Since(start)

	if got := srv.Profile().Counter(metrics.MetricIPCTimeouts).Value(); got == 0 {
		t.Error("no IPC timeouts despite stalled supervisor")
	}
	if res.CallsFailed == 0 {
		t.Error("no calls failed; cross-worker forwards should 503")
	}
	// The whole point of the deadline: failures are fast. Without it each
	// blocked worker would hang until the phones' response timeout while
	// every reader waiting for its lock starved behind the stalled request.
	if elapsed > 5*time.Second {
		t.Errorf("run took %v; workers appear to have blocked past IPCTimeout", elapsed)
	}
}

// TestTCPWorkerLockBackpressure sends pipelined REGISTERs on four
// connections at once to a one-worker process-model server with a slow user
// database. A reader holds its message, and stops reading its socket, while
// it waits for the worker's lock; with a queue budget of one the threshold
// policy sees those waiters and sheds with 503 + Retry-After, and each
// connection still gets its answers in CSeq order.
func TestTCPWorkerLockBackpressure(t *testing.T) {
	const conns, burst = 4, 10
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 1,
		IPCMode: ipc.ModeChan,
		ConnMgr: connmgr.KindScan,
		DB:      userdb.Config{LookupLatency: 5 * time.Millisecond},
		Overload: overload.Config{
			Policy:     overload.PolicyThreshold,
			MaxPending: 1 << 20, // pending never trips; waiters govern
			MaxQueue:   1,
		},
	})
	got200, got503 := 0, 0
	for _, st := range sendBursts(t, srv.Addr(), conns, burst) {
		for _, code := range st {
			switch code {
			case sipmsg.StatusOK:
				got200++
			case sipmsg.StatusServiceUnavail:
				got503++
			default:
				t.Errorf("unexpected status %d", code)
			}
		}
	}
	if got200 == 0 {
		t.Error("no REGISTER admitted; backpressure should shed load, not all of it")
	}
	if got503 == 0 {
		t.Error("no REGISTER shed with four connections waiting on one worker and a queue budget of 1")
	}
	if got := srv.Profile().Counter(metrics.MetricOverloadOffered).Value(); got != conns*burst {
		t.Errorf("offered = %d, want %d", got, conns*burst)
	}
}
