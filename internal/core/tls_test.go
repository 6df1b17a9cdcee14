package core

import (
	"net"
	"runtime"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

// tlsFixture generates a runtime certificate and returns matched server
// options and a phone-fleet client context built from the same ones.
func tlsFixture(t *testing.T, resume bool) (*transport.TLSOptions, *transport.TLSContext) {
	t.Helper()
	cert, pool, err := transport.GenerateSelfSigned("core.tls.test")
	if err != nil {
		t.Fatalf("GenerateSelfSigned: %v", err)
	}
	opts := transport.TLSOptions{Cert: cert, RootCAs: pool, Resume: resume}
	fleet, err := transport.NewTLSContext(opts)
	if err != nil {
		t.Fatalf("fleet context: %v", err)
	}
	t.Cleanup(fleet.Close)
	return &opts, fleet
}

// runTLSLoad is runLoad with the fleet's TLS context attached.
func runTLSLoad(t *testing.T, srv Server, fleet *transport.TLSContext, pairs, calls, opsPerConn int) loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(loadgen.Config{
		Transport:       transport.TLS,
		TLS:             fleet,
		ProxyAddr:       srv.Addr(),
		Domain:          testDomain,
		Pairs:           pairs,
		CallsPerCaller:  calls,
		OpsPerConn:      opsPerConn,
		ResponseTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	return res
}

func TestTLSOnArchTCPEndToEnd(t *testing.T) {
	settings, fleet := tlsFixture(t, false)
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 4,
		IPCMode: ipc.ModeChan,
		FDCache: true,
		ConnMgr: connmgr.KindPQueue,
		TLS:     settings,
	})
	res := runTLSLoad(t, srv, fleet, 8, 5, 0)
	assertClean(t, res, 40)

	prof := srv.Profile()
	if hs := prof.Counter(metrics.MetricTLSFullHandshakes).Value(); hs == 0 {
		t.Error("server performed no full handshakes")
	}
	if n := prof.Histogram(metrics.StageHandshake).Snapshot().Count; n == 0 {
		t.Error("handshake histogram is empty")
	}
	// TLS crypto state lives in userspace, so descriptors cannot be passed
	// or cached: every cross-worker send must pin to the owning conn object,
	// and the fd paths must stay cold even with the cache enabled.
	if pinned := prof.Counter(metrics.MetricTLSPinnedSends).Value(); pinned == 0 {
		t.Error("no pinned sends; cross-worker TLS traffic took the fd path?")
	}
	if hits := prof.Counter(metrics.MetricFDCacheHit).Value(); hits != 0 {
		t.Errorf("fd cache hit %d times under TLS", hits)
	}
	if ipcs := prof.Counter(metrics.MetricIPCCount).Value(); ipcs != 0 {
		t.Errorf("%d IPC fd requests under TLS", ipcs)
	}
}

func TestTLSOnArchThreadedEndToEnd(t *testing.T) {
	settings, fleet := tlsFixture(t, false)
	srv := startServer(t, Config{
		Arch:    ArchThreaded,
		Workers: 4,
		ConnMgr: connmgr.KindPQueue,
		TLS:     settings,
	})
	res := runTLSLoad(t, srv, fleet, 8, 5, 0)
	assertClean(t, res, 40)
	prof := srv.Profile()
	if hs := prof.Counter(metrics.MetricTLSFullHandshakes).Value(); hs == 0 {
		t.Error("server performed no full handshakes")
	}
	// The shared-address-space architecture writes through the conn object
	// directly; there is no fd path to pin away from.
	if pinned := prof.Counter(metrics.MetricTLSPinnedSends).Value(); pinned != 0 {
		t.Errorf("threaded server recorded %d pinned sends", pinned)
	}
}

func TestTLSResumptionAcrossReconnects(t *testing.T) {
	settings, fleet := tlsFixture(t, true)
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 4,
		IPCMode: ipc.ModeChan,
		ConnMgr: connmgr.KindPQueue,
		TLS:     settings,
	})
	// Per-call connections (2 ops per conn) with a shared fleet session
	// cache: after each pair's first connection, reconnects must resume.
	res := runTLSLoad(t, srv, fleet, 4, 10, 2)
	assertClean(t, res, 40)
	prof := srv.Profile()
	full := prof.Counter(metrics.MetricTLSFullHandshakes).Value()
	resumed := prof.Counter(metrics.MetricTLSResumptions).Value()
	if resumed == 0 {
		t.Fatal("no handshake resumed across reconnects")
	}
	if resumed < full {
		t.Errorf("resumed (%d) < full (%d); session cache ineffective", resumed, full)
	}
}

func TestTLSRequiresStreamArchitecture(t *testing.T) {
	settings, _ := tlsFixture(t, false)
	for _, arch := range []Architecture{ArchUDP, ArchSCTP} {
		if _, err := New(Config{Arch: arch, Workers: 2, TLS: settings}); err == nil {
			t.Errorf("New accepted TLS on %s", arch)
		}
	}
}

// TestTLSHandshakeFailureLeakFree drives the failure paths the reader
// goroutine owns: peers that speak plaintext garbage, peers that close
// mid-handshake, and peers that connect and go mute. None may leak
// goroutines or IPC handles.
func TestTLSHandshakeFailureLeakFree(t *testing.T) {
	settings, fleet := tlsFixture(t, false)
	settings.HandshakeTimeout = 200 * time.Millisecond
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 4,
		IPCMode: ipc.ModeChan,
		FDCache: true,
		ConnMgr: connmgr.KindPQueue,
		TLS:     settings,
	})
	before := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		// Plaintext speaker: the record layer rejects it immediately.
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		nc.Write([]byte("INVITE sip:bob@core.test SIP/2.0\r\n\r\n"))
		nc.Close()

		// Mid-handshake close: first ClientHello byte, then gone.
		nc, err = net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		nc.Write([]byte{0x16})
		nc.Close()

		// Mute peer: nothing at all; the handshake deadline must reap it.
		nc, err = net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
	}

	// Every failure must be counted and every reader must have unwound.
	deadline := time.Now().Add(5 * time.Second)
	prof := srv.Profile()
	for prof.Counter(metrics.MetricTLSHandshakeFailures).Value() < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("handshake failures = %d, want >= 16",
				prof.Counter(metrics.MetricTLSHandshakeFailures).Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	testutil.CheckGoroutines(t, before)
	testutil.CheckHandleLedger(t, prof)

	// The server must still serve real traffic after the abuse.
	res := runTLSLoad(t, srv, fleet, 2, 3, 0)
	assertClean(t, res, 6)
}
