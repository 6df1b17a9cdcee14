package ipc

import (
	"runtime"
	"testing"

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
