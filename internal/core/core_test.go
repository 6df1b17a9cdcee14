package core

import (
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/loadgen"
	"gosip/internal/metrics"
	"gosip/internal/phone"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

const testDomain = "core.test"

func startServer(t *testing.T, cfg Config) Server {
	t.Helper()
	cfg.Domain = testDomain
	cfg.Stateful = true
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.DB().ProvisionN(64, testDomain)
	return srv
}

func runLoad(t *testing.T, srv Server, kind transport.Kind, pairs, calls, opsPerConn int) loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(loadgen.Config{
		Transport:       kind,
		ProxyAddr:       srv.Addr(),
		Domain:          testDomain,
		Pairs:           pairs,
		CallsPerCaller:  calls,
		OpsPerConn:      opsPerConn,
		ResponseTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	return res
}

func assertClean(t *testing.T, res loadgen.Result, wantCalls int) {
	t.Helper()
	if res.CallsCompleted != wantCalls {
		t.Errorf("completed %d calls, want %d (failed=%d)", res.CallsCompleted, wantCalls, res.CallsFailed)
	}
	if res.CallsFailed != 0 {
		t.Errorf("failed calls: %d", res.CallsFailed)
	}
	if res.Ops != 2*wantCalls {
		t.Errorf("ops = %d, want %d", res.Ops, 2*wantCalls)
	}
	if res.Throughput <= 0 {
		t.Error("throughput is zero")
	}
}

func TestUDPServerEndToEnd(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 4})
	res := runLoad(t, srv, transport.UDP, 4, 5, 0)
	assertClean(t, res, 20)
	if got := srv.Profile().Counter(metrics.MetricMsgsProcessed).Value(); got == 0 {
		t.Error("no messages recorded")
	}
}

func TestTCPBaselineEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 4,
		IPCMode: ipc.ModeChan,
		ConnMgr: connmgr.KindScan,
	})
	// 8 pairs so the probability that every pair colocates on one worker
	// (which would legitimately need no IPC) is negligible.
	res := runLoad(t, srv, transport.TCP, 8, 5, 0)
	assertClean(t, res, 40)
	// The baseline must exercise IPC: forwarding between two legs owned by
	// different workers requires descriptor requests.
	if got := srv.Profile().Counter(metrics.MetricIPCCount).Value(); got == 0 {
		t.Error("baseline TCP performed no IPC fd requests")
	}
	if got := srv.Profile().Counter(metrics.MetricFDCacheHit).Value(); got != 0 {
		t.Error("fd cache hits with the cache disabled")
	}
}

func TestTCPUnixIPCEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 4,
		IPCMode: ipc.ModeUnix,
		ConnMgr: connmgr.KindScan,
	})
	res := runLoad(t, srv, transport.TCP, 8, 5, 0)
	assertClean(t, res, 40)
	// The round trip the paper blames is made for every non-owner send, and
	// nothing is left of it afterwards: one supervisor answer per request,
	// one descriptor per answer, one close per descriptor.
	srv.Close()
	prof := srv.Profile()
	requests := prof.Counter(metrics.MetricIPCCount).Value()
	if requests == 0 {
		t.Fatal("unix-IPC TCP performed no fd requests")
	}
	answered := prof.Snapshot().Histograms[metrics.StageSupervisor].Count
	issued, closed := testutil.HandleLedger(prof)
	if answered != requests || issued != requests || closed != requests {
		t.Errorf("%d fd requests: %d answered, %d handles issued, %d closed", requests, answered, issued, closed)
	}
}

func TestTCPWithFDCache(t *testing.T) {
	srv := startServer(t, Config{
		Arch:    ArchTCP,
		Workers: 4,
		IPCMode: ipc.ModeChan,
		FDCache: true,
		ConnMgr: connmgr.KindScan,
	})
	res := runLoad(t, srv, transport.TCP, 8, 10, 0)
	assertClean(t, res, 80)
	hits := srv.Profile().Counter(metrics.MetricFDCacheHit).Value()
	ipcs := srv.Profile().Counter(metrics.MetricIPCCount).Value()
	if hits == 0 {
		t.Error("fd cache never hit")
	}
	// With persistent connections the cache should absorb most requests:
	// far more hits than IPC round-trips.
	if hits < ipcs {
		t.Errorf("cache hits (%d) < IPC requests (%d); cache ineffective", hits, ipcs)
	}
}

func TestTCPWithPQueueAndChurn(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchTCP,
		Workers:           4,
		IPCMode:           ipc.ModeChan,
		FDCache:           true,
		ConnMgr:           connmgr.KindPQueue,
		IdleTimeout:       200 * time.Millisecond,
		IdleCheckInterval: 50 * time.Millisecond,
	})
	// ops/conn = 4 → every caller reconnects every two calls.
	res := runLoad(t, srv, transport.TCP, 4, 8, 4)
	assertClean(t, res, 32)
	if res.Reconnects == 0 {
		t.Error("no reconnects despite ops/conn churn")
	}
	// Idle management must eventually destroy churned connections.
	deadline := time.Now().Add(5 * time.Second)
	ts := srv.(*tcpServer)
	for time.Now().Before(deadline) {
		if ts.ConnCount() <= 2*4+4 { // remaining live conns bounded
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	accepted := srv.Profile().Counter(metrics.MetricConnsAccepted).Value()
	closed := srv.Profile().Counter(metrics.MetricConnsClosed).Value()
	if closed == 0 {
		t.Errorf("no connections destroyed (accepted=%d)", accepted)
	}
}

func TestThreadedServerEndToEnd(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 4, ConnMgr: connmgr.KindPQueue})
	res := runLoad(t, srv, transport.TCP, 4, 5, 0)
	assertClean(t, res, 20)
	// Shared address space: zero IPC by construction.
	if got := srv.Profile().Counter(metrics.MetricIPCCount).Value(); got != 0 {
		t.Errorf("threaded server performed %d IPC requests", got)
	}
}

func TestIdleConnectionsClosedByServer(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchTCP,
		Workers:           2,
		IdleTimeout:       100 * time.Millisecond,
		IdleCheckInterval: 25 * time.Millisecond,
	})
	p, err := phone.New(phone.Config{
		Transport: transport.TCP,
		ProxyAddr: srv.Addr(),
		Domain:    testDomain,
		User:      "user0",
	}, phone.Caller)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Register(); err != nil {
		t.Fatal(err)
	}
	ts := srv.(*tcpServer)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && ts.ConnCount() > 0 {
		time.Sleep(25 * time.Millisecond)
	}
	if got := ts.ConnCount(); got != 0 {
		t.Errorf("idle connection not destroyed: %d live", got)
	}
	if srv.Profile().Counter(metrics.MetricConnsClosed).Value() == 0 {
		t.Error("close counter is zero")
	}
}

func TestSupervisorPenaltySlowsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	run := func(penalty time.Duration) float64 {
		srv := startServer(t, Config{
			Arch:              ArchTCP,
			Workers:           4,
			SupervisorPenalty: penalty,
		})
		defer srv.Close()
		res := runLoad(t, srv, transport.TCP, 8, 10, 0)
		if res.CallsFailed > 0 {
			t.Fatalf("failed calls under penalty %v: %d", penalty, res.CallsFailed)
		}
		return res.Throughput
	}
	boosted := run(0)
	starved := run(2 * time.Millisecond)
	if starved >= boosted {
		t.Errorf("supervisor starvation did not reduce throughput: boosted=%.0f starved=%.0f", boosted, starved)
	}
}

func TestUnknownArchitecture(t *testing.T) {
	if _, err := New(Config{Arch: "quic"}); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestServerAccessors(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 1})
	if srv.Addr() == "" || srv.Engine() == nil || srv.Profile() == nil || srv.Location() == nil || srv.DB() == nil {
		t.Error("accessor returned zero value")
	}
	if !srv.Engine().Config().Stateful {
		t.Error("stateful flag lost")
	}
}

func TestCloseIdempotent(t *testing.T) {
	for _, arch := range []Architecture{ArchUDP, ArchTCP, ArchThreaded} {
		srv := startServer(t, Config{Arch: arch, Workers: 2})
		if err := srv.Close(); err != nil {
			t.Errorf("%s: Close: %v", arch, err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("%s: second Close: %v", arch, err)
		}
	}
}

func TestRedirectServerEndToEnd(t *testing.T) {
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		t.Run(string(kind), func(t *testing.T) {
			arch := ArchUDP
			if kind == transport.TCP {
				arch = ArchTCP
			}
			srv, err := New(Config{
				Arch:     arch,
				Workers:  4,
				Stateful: true,
				Redirect: true,
				Domain:   testDomain,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.DB().ProvisionN(8, testDomain)

			res := runLoad(t, srv, kind, 2, 4, 0)
			if res.CallsCompleted != 8 || res.CallsFailed != 0 {
				t.Fatalf("redirected calls: %+v", res)
			}
			// A redirected call is one server transaction (the 302), so ops
			// equal completed calls, not 2x.
			if res.Ops != 8 {
				t.Errorf("ops = %d, want 8 (one 302 transaction per call)", res.Ops)
			}
		})
	}
}

func TestAuthEndToEnd(t *testing.T) {
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		t.Run(string(kind), func(t *testing.T) {
			arch := ArchUDP
			if kind == transport.TCP {
				arch = ArchTCP
			}
			srv := startServer(t, Config{Arch: arch, Workers: 4, Auth: true, FDCache: true})
			res := runLoad(t, srv, kind, 3, 4, 0)
			assertClean(t, res, 12)
			// Every REGISTER, INVITE, and BYE gets challenged once.
			if got := srv.Profile().Counter("proxy.auth_challenges").Value(); got == 0 {
				t.Error("no challenges issued with auth enabled")
			}
		})
	}
}
