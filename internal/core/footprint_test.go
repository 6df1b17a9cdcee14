package core

import (
	"bytes"
	"errors"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	gmetrics "gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// streamArchs are the two stream architectures, configured as the
// benchmark's tcp.persistent and threaded.persistent servers.
var streamArchs = []struct {
	name string
	cfg  Config
}{
	{"tcp", Config{Arch: ArchTCP, IPCMode: ipc.ModeUnix, FDCache: true, ConnMgr: connmgr.KindPQueue}},
	{"threaded", Config{Arch: ArchThreaded}},
}

// waitLoans waits up to five seconds for the process's stream read buffers
// on loan to reach want, and fails the test if they do not.
func waitLoans(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sipmsg.ReadBuffersOnLoan() != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := sipmsg.ReadBuffersOnLoan(); got != want {
		t.Fatalf("%d read buffers on loan, want %d", got, want)
	}
}

// waitDropped fails the test unless the server closes c within five
// seconds: a read returns EOF or a reset rather than data or a timeout.
func waitDropped(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	for {
		_, err := c.Read(buf)
		if err == nil {
			continue // a response to something earlier: not a drop yet
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("the server kept the connection open")
		}
		return
	}
}

// strangerRegister renders a REGISTER from the client end la for a user the
// server does not know, which it answers 404 on the spot and keeps nothing
// of.
func strangerRegister(la *net.TCPAddr, callID string) []byte {
	stranger := sipmsg.URI{User: "nobody", Host: testDomain}
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.REGISTER,
		RequestURI: sipmsg.URI{Host: testDomain},
		From:       sipmsg.NameAddr{URI: stranger, Params: map[string]string{"tag": "idle"}},
		To:         sipmsg.NameAddr{URI: stranger},
		CallID:     callID,
		CSeq:       1,
		Via:        sipmsg.Via{Transport: "TCP", Host: la.IP.String(), Port: la.Port},
		Contact:    &sipmsg.NameAddr{URI: sipmsg.URI{User: "nobody", Host: la.IP.String(), Port: la.Port}},
		Expires:    60,
	}).Serialize()
}

// readRuntime samples the named runtime/metrics values after two garbage
// collections, so the heap holds only what is still reachable.
func readRuntime(names ...string) []uint64 {
	runtime.GC()
	runtime.GC()
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]uint64, len(names))
	for i := range samples {
		out[i] = samples[i].Value.Uint64()
	}
	return out
}

// TestIdleConnectionFootprint prices an idle stream connection. It opens
// 2,000 loopback connections to each stream architecture, sends one
// REGISTER on each and waits for the answer, then lets them idle and measures what
// the process holds for them after a GC: reachable heap objects per
// connection, both ends included (the test's client socket is a few hundred
// bytes of it), must stay within 4 KB — a reader that kept its read buffer
// across the wait would be over it on its own. The goroutine stack per
// connection is reported beside it; EXPERIMENTS.md "What an idle
// connection costs" breaks both down.
func TestIdleConnectionFootprint(t *testing.T) {
	const conns = 2000
	if testing.Short() {
		t.Skip("opens 2,000 loopback connections per architecture; skipped under -short")
	}
	lim, ok := fdLimit()
	if !ok {
		t.Skipf("needs %d descriptors for both ends of %d connections, and this platform has no RLIMIT_NOFILE probe", 2*conns+512, conns)
	}
	if lim < 2*conns+512 {
		t.Skipf("needs %d descriptors for both ends of %d connections; RLIMIT_NOFILE is %d", 2*conns+512, conns, lim)
	}
	for _, tc := range streamArchs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 4
			cfg.IdleTimeout = time.Hour
			srv := startServer(t, cfg)
			stream := srv.(interface{ ConnCount() int })

			names := []string{"/gc/heap/live:bytes", "/memory/classes/heap/stacks:bytes"}
			before := readRuntime(names...)
			clients := make([]net.Conn, 0, conns)
			defer func() {
				for _, c := range clients {
					c.Close()
				}
			}()
			buf := make([]byte, 2048)
			for i := 0; i < conns; i++ {
				c, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				clients = append(clients, c)
				if _, err := c.Write(strangerRegister(c.LocalAddr().(*net.TCPAddr), "idle-"+c.LocalAddr().String())); err != nil {
					t.Fatal(err)
				}
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := c.Read(buf)
				if err != nil || !bytes.HasPrefix(buf[:n], []byte("SIP/2.0 404")) {
					t.Fatalf("connection %d: REGISTER answered %q, %v", i, buf[:min(n, 40)], err)
				}
			}
			if got := stream.ConnCount(); got != conns {
				t.Fatalf("server holds %d connections, want %d", got, conns)
			}
			// Every reader has answered and gone back to waiting.
			waitLoans(t, 0)
			if got := srv.Profile().Snapshot().Gauges[gmetrics.GaugeReadBufsOnLoan]; got != 0 {
				t.Errorf("%s = %v on an idle server", gmetrics.GaugeReadBufsOnLoan, got)
			}
			after := readRuntime(names...)
			heap := float64(int64(after[0])-int64(before[0])) / conns
			stack := float64(int64(after[1])-int64(before[1])) / conns
			t.Logf("per idle connection: %.0f B live heap (both ends), %.0f B goroutine stack", heap, stack)
			if heap > 4096 {
				t.Errorf("an idle connection holds %.0f B of heap, want <= 4096", heap)
			}
		})
	}
}

// TestHostilePartialInputBounded feeds each stream architecture a message
// that may never be framed: a head that runs past MaxHeaderBytes with no
// blank line, and a head announcing a billion-byte body. While the head is
// incomplete the connection holds one read buffer and the worker's other
// connections complete calls; once the limit is crossed (sipmsg's
// ErrTooLarge) the server drops the connection and the buffer comes back.
// One worker, so the hostile connection and the callers share it.
func TestHostilePartialInputBounded(t *testing.T) {
	pad := "X-Pad: " + strings.Repeat("x", 20<<10) + "\r\n"
	for _, shape := range []struct {
		name        string
		first, rest string // rest crosses the limit
	}{
		{"endless-head", "INVITE sip:bob@core.test SIP/2.0\r\n" + pad, pad},
		{"huge-body", "INVITE sip:bob@core.test SIP/2.0\r\n" + pad, "Content-Length: 1000000000\r\n\r\n" + strings.Repeat("b", 8<<10)},
	} {
		for _, tc := range streamArchs {
			t.Run(shape.name+"/"+tc.name, func(t *testing.T) {
				cfg := tc.cfg
				cfg.Workers = 1
				srv := startServer(t, cfg)
				waitLoans(t, 0)
				bad, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer bad.Close()
				if _, err := bad.Write([]byte(shape.first)); err != nil {
					t.Fatal(err)
				}
				waitLoans(t, 1)
				assertClean(t, runLoad(t, srv, transport.TCP, 2, 3, 0), 6)

				// The server may close before it has read all of rest: a
				// failed write is the drop arriving early.
				_, _ = bad.Write([]byte(shape.rest))
				waitDropped(t, bad)
				waitLoans(t, 0)
				assertClean(t, runLoad(t, srv, transport.TCP, 2, 3, 0), 6)
			})
		}
	}
}

// TestIdlePartialMessageGivesBufferBack leaves half a message on a
// connection until the server retires it as idle. The reader wakes on the
// read deadline with the partial message still pending, and gives its
// buffer back on the way out, before the connection is dropped.
func TestIdlePartialMessageGivesBufferBack(t *testing.T) {
	for _, tc := range streamArchs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 1
			cfg.IdleTimeout = 300 * time.Millisecond
			cfg.IdleCheckInterval = 25 * time.Millisecond
			srv := startServer(t, cfg)
			waitLoans(t, 0)
			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			wire := strangerRegister(c.LocalAddr().(*net.TCPAddr), "partial")
			if _, err := c.Write(wire[:len(wire)/2]); err != nil {
				t.Fatal(err)
			}
			waitLoans(t, 1)
			waitDropped(t, c)
			waitLoans(t, 0)
			// The client can see EOF before the closing goroutine has
			// counted the close: the table closes the socket first.
			closed := srv.Profile().Counter(gmetrics.MetricConnsClosed)
			for deadline := time.Now().Add(5 * time.Second); closed.Value() == 0 && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if closed.Value() == 0 {
				t.Error("the idle connection was not destroyed")
			}
		})
	}
}
