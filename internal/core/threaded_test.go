package core

import (
	"net"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/phone"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

func TestThreadedAccessors(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 2})
	if srv.Addr() == "" || srv.Engine() == nil || srv.Profile() == nil ||
		srv.Location() == nil || srv.DB() == nil {
		t.Error("accessor returned zero value")
	}
	if srv.(*threadedServer).ConnCount() != 0 {
		t.Error("fresh server has connections")
	}
}

func TestThreadedRetiresDisconnectedConns(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 2})
	ts := srv.(*threadedServer)
	for i := 0; i < 6; i++ {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	// Dial returns before the accept loop has run: a count of 0 read before
	// every connection entered the table proves nothing.
	accepted := srv.Profile().Counter(metrics.MetricConnsAccepted)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (accepted.Value() < 6 || ts.ConnCount() > 0) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := ts.ConnCount(); got != 0 {
		t.Errorf("%d connections leaked after disconnects", got)
	}
}

func TestThreadedIdleClose(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchThreaded,
		Workers:           2,
		ConnMgr:           connmgr.KindPQueue,
		IdleTimeout:       100 * time.Millisecond,
		IdleCheckInterval: 25 * time.Millisecond,
	})
	ts := srv.(*threadedServer)
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Dial returns before the server's accept loop has run: wait for the
	// connection to be counted in before waiting for it to be counted out.
	deadline := time.Now().Add(5 * time.Second)
	accepted := srv.Profile().Counter(metrics.MetricConnsAccepted)
	for time.Now().Before(deadline) && (accepted.Value() == 0 || ts.ConnCount() > 0) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := ts.ConnCount(); got != 0 {
		t.Errorf("idle connection not destroyed: %d live", got)
	}
	if srv.Profile().Counter(metrics.MetricConnsClosed).Value() == 0 {
		t.Error("close counter zero")
	}
}

// TestThreadedDialsContactWhenNoConn forces the ToAddr dial path: the
// callee's binding is installed with no Source, so delivery must dial the
// callee's listener.
func TestThreadedDialsContactWhenNoConn(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 2})

	callee, err := phone.New(phone.Config{
		Transport: transport.TCP, ProxyAddr: srv.Addr(), Domain: testDomain, User: "user1",
		ResponseTimeout: 2 * time.Second,
	}, phone.Callee)
	if err != nil {
		t.Fatal(err)
	}
	defer callee.Close()
	if err := callee.Register(); err != nil {
		t.Fatal(err)
	}
	// Replace the binding with a Source-less one so connection reuse is
	// impossible and the proxy must dial the contact listener.
	srv.Location().Register("user1@"+testDomain, location.Binding{
		Contact:   callee.Contact(),
		Transport: string(transport.TCP),
	}, time.Hour, time.Now())

	caller, err := phone.New(phone.Config{
		Transport: transport.TCP, ProxyAddr: srv.Addr(), Domain: testDomain, User: "user0",
		ResponseTimeout: 2 * time.Second,
	}, phone.Caller)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	if err := caller.Register(); err != nil {
		t.Fatal(err)
	}
	if err := caller.Call("user1"); err != nil {
		t.Fatalf("call via dialed contact: %v", err)
	}
}

func TestThreadedSenderRejectsWrongOrigin(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 1})
	w := srv.(*threadedServer).workers[0]
	m := sipmsg.NewResponse(&sipmsg.Message{IsRequest: true, Method: sipmsg.OPTIONS}, sipmsg.StatusOK, "t")
	if err := w.ToOrigin(42, m); err == nil {
		t.Error("integer origin accepted")
	}
}

func TestTCPServerAccessorsViaInterface(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchTCP, Workers: 1})
	if srv.Engine() == nil || srv.Location() == nil {
		t.Error("tcp accessors nil")
	}
}
