package core

import (
	"testing"

	"gosip/internal/metrics"
	"gosip/internal/transport"
)

// The batched I/O knobs must keep the proxy's observable behaviour
// identical — same calls completed, same message counts — while changing
// only how datagrams cross the kernel boundary. These tests run the same
// end-to-end load as the baseline suites with each knob on and check both
// the workload outcome and the syscall accounting.

func TestUDPServerBatchedEndToEnd(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 4, UDPBatch: 16})
	res := runLoad(t, srv, transport.UDP, 4, 5, 0)
	assertClean(t, res, 20)

	prof := srv.Profile()
	if got := prof.Counter(metrics.MetricUDPRecvMsgs).Value(); got == 0 {
		t.Error("batched receive path recorded no datagrams")
	}
	if got := prof.Counter(metrics.MetricUDPPoolDropped).Value(); got != 0 {
		t.Errorf("pool dropped %d buffers, want 0", got)
	}
	flushes := prof.Counter(metrics.MetricEgressFlushFull).Value() +
		prof.Counter(metrics.MetricEgressFlushDrain).Value() +
		prof.Counter(metrics.MetricEgressFlushLinger).Value() +
		prof.Counter(metrics.MetricEgressFlushClose).Value()
	if flushes == 0 {
		t.Error("no egress flushes recorded: sends did not take the batched path")
	}
	if sent := prof.Counter(metrics.MetricUDPSendMsgs).Value(); sent == 0 {
		t.Error("no datagrams recorded on the send side")
	}
}

// TestUDPServerBatchedShardedEndToEnd: batched reads and the per-worker
// egress batchers stay correct when the load spreads over a reuseport
// group of fewer sockets than there are clients.
func TestUDPServerBatchedShardedEndToEnd(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 2, UDPBatch: 16})
	want := 2
	if !transport.ReusePortAvailable() {
		want = 1
	}
	if got := srv.(*udpServer).ShardCount(); got != want {
		t.Fatalf("ShardCount = %d, want %d", got, want)
	}
	res := runLoad(t, srv, transport.UDP, 4, 5, 0)
	assertClean(t, res, 20)
	if got := srv.Profile().Counter(metrics.MetricUDPPoolDropped).Value(); got != 0 {
		t.Errorf("pool dropped %d buffers, want 0", got)
	}
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
