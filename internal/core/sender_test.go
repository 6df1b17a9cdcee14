package core

import (
	"net"
	"testing"
	"time"

	"gosip/internal/conn"
	"gosip/internal/ipc"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/transport"
)

// asHandler runs fn as worker id's message handler would: on tcp under the
// worker's lock, which its fd cache and IPC port assume.
func asHandler(srv Server, id int, fn func(*streamWorker)) {
	switch s := srv.(type) {
	case *tcpServer:
		w := s.workers[id]
		w.mu.Lock()
		defer w.mu.Unlock()
		fn(w.streamWorker)
	case *threadedServer:
		fn(s.workers[id].streamWorker)
	}
}

func baseOf(srv Server) *streamBase {
	switch s := srv.(type) {
	case *tcpServer:
		return s.streamBase
	case *threadedServer:
		return s.streamBase
	}
	return nil
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// readCallID reads one message from sc and returns its Call-ID.
func readCallID(t *testing.T, sc *transport.StreamConn) string {
	t.Helper()
	sc.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := sc.ReadMessage()
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	defer m.Release()
	return m.CallID()
}

// TestStreamSender drives the one stream sender under each way a worker
// acquires a connection's handle: fd cache and unix fd passing, the channel
// fabric, the shared address space, and TLS, whose non-owner sends are
// pinned to the shared connection object. A binding's live Source is reused
// without a dial; a stale one falls back to dialing the Contact, and the
// dialed connection is adopted with a reader of its own.
func TestStreamSender(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		tls  bool
	}{
		{"tcp-unix-fdcache", Config{Arch: ArchTCP, IPCMode: ipc.ModeUnix, FDCache: true}, false},
		{"tcp-chan", Config{Arch: ArchTCP, IPCMode: ipc.ModeChan}, false},
		{"threaded", Config{Arch: ArchThreaded}, false},
		{"tcp-tls", Config{Arch: ArchTCP, IPCMode: ipc.ModeUnix, FDCache: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers = 2
			var fleet *transport.TLSContext
			if tc.tls {
				cfg.TLS, fleet = tlsFixture(t, false)
			}
			srv := startServer(t, cfg)
			b := baseOf(srv)
			prof := srv.Profile()

			// A live peer connection, accepted and adopted by one worker.
			var nc net.Conn
			var err error
			if tc.tls {
				nc, err = fleet.DialAddr(srv.Addr(), 5*time.Second)
			} else {
				nc, err = net.Dial("tcp", srv.Addr())
			}
			if err != nil {
				t.Fatal(err)
			}
			peer := transport.NewStreamConn(nc)
			defer peer.Close()
			source := nc.LocalAddr().String()
			var live *conn.TCPConn
			waitFor(t, "the peer connection to be adopted", func() bool {
				live = b.table.Lookup(source)
				return live != nil && live.Owner() >= 0
			})
			owner := live.Owner()

			// Live Source: delivered on that connection by the owner and by the
			// other worker, with no dial.
			accepted := prof.Counter(metrics.MetricConnsAccepted).Value()
			open := prof.Snapshot().Gauges[metrics.GaugeOpenConns]
			pinned := prof.Counter(metrics.MetricTLSPinnedSends)
			for _, id := range []int{owner, 1 - owner} {
				before := pinned.Value()
				m := udpTestMsg()
				asHandler(srv, id, func(w *streamWorker) {
					err = w.ToBinding(location.Binding{
						Source:    source,
						Contact:   sipmsg.URI{Host: "127.0.0.1", Port: 1},
						Transport: string(transport.TCP),
					}, m)
				})
				if err != nil {
					t.Fatalf("worker %d send on live source: %v", id, err)
				}
				if got := readCallID(t, peer); got != m.CallID() {
					t.Errorf("worker %d: peer read Call-ID %q, want %q", id, got, m.CallID())
				}
				want := int64(0)
				if tc.tls && cfg.Arch == ArchTCP && id != owner {
					want = 1
				}
				if d := pinned.Value() - before; d != want {
					t.Errorf("worker %d (owner %d): tls.pinned_sends moved by %d, want %d", id, owner, d, want)
				}
			}
			if got := prof.Counter(metrics.MetricConnsAccepted).Value(); got != accepted {
				t.Errorf("reusing a live source entered %d connections in the table", got-accepted)
			}
			if got := prof.Snapshot().Gauges[metrics.GaugeOpenConns]; got != open {
				t.Errorf("open connections %v -> %v on a reused source", open, got)
			}

			// Stale Source: the sender dials the Contact instead.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := make(chan string, 1)
			hangUp := make(chan struct{})
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					got <- err.Error()
					return
				}
				if tc.tls {
					nc = fleet.Server(nc)
				}
				callee := transport.NewStreamConn(nc)
				defer callee.Close()
				m, err := callee.ReadMessage()
				if err != nil {
					got <- err.Error()
					return
				}
				got <- m.CallID()
				m.Release()
				<-hangUp
			}()
			contact := ln.Addr().(*net.TCPAddr)
			m := udpTestMsg()
			dialer := 1 - owner
			asHandler(srv, dialer, func(w *streamWorker) {
				err = w.ToBinding(location.Binding{
					Source:    "127.0.0.1:1",
					Contact:   sipmsg.URI{User: "callee", Host: "127.0.0.1", Port: contact.Port},
					Transport: string(transport.TCP),
				}, m)
			})
			if err != nil {
				t.Fatalf("send on stale source: %v", err)
			}
			if id := <-got; id != m.CallID() {
				t.Fatalf("contact read %q, want Call-ID %q", id, m.CallID())
			}
			dialed := b.table.Lookup(contact.String())
			if dialed == nil {
				t.Fatal("dialed connection is not in the table")
			}
			if dialed.Owner() != dialer {
				t.Errorf("dialed connection owned by worker %d, want the dialing worker %d", dialed.Owner(), dialer)
			}
			// Its reader sees the hang-up and retires it from the table.
			close(hangUp)
			waitFor(t, "the dialed connection's reader to retire it", func() bool {
				return b.table.Lookup(contact.String()) == nil
			})
		})
	}
}
