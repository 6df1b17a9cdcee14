package ipc

import (
	"runtime"
	"testing"

	"gosip/internal/metrics"
	"gosip/internal/testutil"
)

// benchRoundTrip measures the cost of one fd request round-trip through
// the supervisor — the per-message overhead the fd cache eliminates.
func benchRoundTrip(b *testing.B, mode Mode) {
	if mode == ModeUnix && runtime.GOOS != "linux" {
		b.Skip("unix fd passing is linux-only")
	}
	t := &testing.T{}
	env := newTestEnv(t, mode, 1)
	defer env.stop()
	fdsBefore := 0
	if mode == ModeUnix {
		fdsBefore = testutil.OpenFDs(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := env.fabric.RequestFD(0, env.conn)
		if err != nil {
			b.Fatal(err)
		}
		h.Close()
	}
	b.StopTimer()
	if mode == ModeUnix {
		// Raw descriptors have nothing behind them to close a leaked one:
		// this must print 0.
		b.ReportMetric(float64(testutil.OpenFDs(b)-fdsBefore), "fds-leaked")
	}
}

func BenchmarkFDRequestChan(b *testing.B) { benchRoundTrip(b, ModeChan) }
func BenchmarkFDRequestUnix(b *testing.B) { benchRoundTrip(b, ModeUnix) }

func BenchmarkDirectHandleSend(b *testing.B) {
	t := &testing.T{}
	env := newTestEnv(t, ModeChan, 1)
	defer env.stop()
	msg := testMsg(1)
	wire := msg.Serialize()
	go func() { // drain the peer so the socket buffer never fills
		buf := make([]byte, 64<<10)
		for {
			if _, err := env.peer.NetConn().Read(buf); err != nil {
				return
			}
		}
	}()
	h := DirectHandle(env.conn)
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.SendRaw(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHandleSendContendedLocked has many workers push responses down
// one shared connection through Handle.SendRaw, each send serialized by the
// connection's send lock; msgs/syscall reports the write calls per message.
func BenchmarkHandleSendContendedLocked(b *testing.B) {
	t := &testing.T{}
	env := newTestEnv(t, ModeChan, 1)
	defer env.stop()
	sc := env.conn.Stream()
	prof := metrics.NewProfile()
	calls := prof.Counter(metrics.MetricTCPWriteCalls)
	msgs := prof.Counter(metrics.MetricTCPWriteMsgs)
	sc.InstrumentWrites(calls, msgs)
	go func() { // drain so the socket buffer never fills
		buf := make([]byte, 256<<10)
		for {
			if _, err := env.peer.NetConn().Read(buf); err != nil {
				return
			}
		}
	}()
	wire := testMsg(1).Serialize()
	b.SetBytes(int64(len(wire)))
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := DirectHandle(env.conn)
		for pb.Next() {
			if err := h.SendRaw(wire); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if c := calls.Value(); c > 0 {
		b.ReportMetric(float64(msgs.Value())/float64(c), "msgs/syscall")
	}
}
