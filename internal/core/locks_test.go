package core

import (
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/metrics"
	"gosip/internal/overload"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/transport"
)

// TestThreadedChurnEndToEnd runs the threaded architecture with connection
// churn and a short idle timeout: calls must complete while connections are
// dispatched, adopted and retired underneath them, and the
// shared-address-space property (zero IPC) must hold.
func TestThreadedChurnEndToEnd(t *testing.T) {
	srv := startServer(t, Config{
		Arch:              ArchThreaded,
		Workers:           4,
		ConnMgr:           connmgr.KindPQueue,
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

// TestConfigRejectsBadKnobs pins the validation: a junk timer, IPC fabric,
// connection manager or overload policy fails fast instead of panicking on
// the first fd request or silently running the default — an unknown
// overload policy would otherwise count every request as admitted by a
// controller that admits everything.
func TestConfigRejectsBadKnobs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"TimerImpl":       {Arch: ArchUDP, TimerImpl: "calendar"},
		"IPCMode":         {Arch: ArchTCP, IPCMode: "unx"},
		"ConnMgr":         {Arch: ArchTCP, ConnMgr: "pqeue"},
		"Overload.Policy": {Arch: ArchUDP, Overload: overload.Config{Policy: "thresold"}},
	} {
		if srv, err := New(cfg); err == nil {
			srv.Close()
			t.Errorf("unknown %s accepted", name)
		}
	}
}
