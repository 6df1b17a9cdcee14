package core

import (
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/metrics"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
)

// TestThreadedAffinityEndToEnd runs the threaded architecture under
// affinity dispatch with connection churn: calls must complete exactly as
// under round-robin, and the shared-address-space property (zero IPC)
// must hold.
func TestThreadedAffinityEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchThreaded,
		Workers:           4,
		ConnMgr:           connmgr.KindPQueue,
		Dispatch:          DispatchAffinity,
		IdleTimeout:       200 * time.Millisecond,
		IdleCheckInterval: 50 * time.Millisecond,
	})
	// ops/conn = 4 forces reconnects, so dispatch runs many times per peer.
	res := runLoad(t, srv, transport.TCP, 4, 8, 4)
	assertClean(t, res, 32)
	if res.Reconnects == 0 {
		t.Error("no reconnects despite ops/conn churn")
	}
	if got := srv.Profile().Counter(metrics.MetricIPCCount).Value(); got != 0 {
		t.Errorf("threaded server performed %d IPC requests", got)
	}
}

// TestThreadedAffinityPinsPeers verifies the dispatch invariant directly:
// every connection from one peer address hashes to the same worker.
func TestThreadedAffinityPinsPeers(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchThreaded, Workers: 4, Dispatch: DispatchAffinity})
	ts := srv.(*threadedServer)
	peers := []string{"10.0.0.1:5060", "10.0.0.2:5060", "10.0.0.1:49152", "[::1]:5060"}
	for _, p := range peers {
		w := ts.workerFor(p)
		for i := 0; i < 8; i++ {
			if got := ts.workerFor(p); got != w {
				t.Fatalf("peer %q dispatched to workers %d and %d", p, w.id, got.id)
			}
		}
	}
}

// TestWheelTimerEndToEnd runs the UDP architecture on its default timer,
// the wheel, with downstream loss, so the proxy's Timer A/B cycle — the
// schedule/cancel churn the wheel exists to make cheap — runs in a full
// end-to-end call flow.
func TestWheelTimerEndToEnd(t *testing.T) {
	srv := startLossyTimerServer(t, "")
	if _, ok := srv.Timers().(*timerlist.Wheel); !ok {
		t.Fatalf("default Timers() = %T, want *timerlist.Wheel", srv.Timers())
	}
	checkLossyTimerLoad(t, srv)
}

// TestHeapTimerEndToEnd is the same flow on the paper-faithful heap, still
// selectable for the -fig locks baseline.
func TestHeapTimerEndToEnd(t *testing.T) {
	srv := startLossyTimerServer(t, timerlist.ImplHeap)
	if _, ok := srv.Timers().(*timerlist.List); !ok {
		t.Fatalf("Timers() = %T, want *timerlist.List", srv.Timers())
	}
	checkLossyTimerLoad(t, srv)
}

func startLossyTimerServer(t *testing.T, impl timerlist.Impl) Server {
	t.Helper()
	srv, err := New(Config{
		Arch:          ArchUDP,
		Workers:       4,
		Stateful:      true,
		Domain:        testDomain,
		Faults:        FaultConfig{DropTx: 0.25, Seed: 11},
		Txn:           transaction.Config{T1: 40 * time.Millisecond, TimerB: 5 * time.Second, Linger: 200 * time.Millisecond},
		TimerInterval: 10 * time.Millisecond,
		TimerImpl:     impl,
		TimerShards:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.DB().ProvisionN(8, testDomain)
	return srv
}

func checkLossyTimerLoad(t *testing.T, srv Server) {
	t.Helper()
	res := runLossyLoad(t, srv, 2, 8)
	if res.CallsFailed != 0 {
		t.Errorf("%d calls failed under downstream loss", res.CallsFailed)
	}
	if got := srv.Profile().Counter(metrics.MetricRetransmits).Value(); got == 0 {
		t.Error("proxy never retransmitted despite downstream loss")
	}
	if scheduled, _ := srv.Timers().Stats(); scheduled == 0 {
		t.Error("no timers scheduled")
	}
}

// TestConfigRejectsBadKnobs pins the validation: junk timer or dispatch
// policies fail fast instead of silently running the default.
func TestConfigRejectsBadKnobs(t *testing.T) {
	if _, err := New(Config{Arch: ArchUDP, TimerImpl: "calendar"}); err == nil {
		t.Error("unknown TimerImpl accepted")
	}
	if _, err := New(Config{Arch: ArchThreaded, Dispatch: "sticky"}); err == nil {
		t.Error("unknown Dispatch accepted")
	}
}
