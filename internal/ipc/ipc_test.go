package ipc

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gosip/internal/conn"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

// testEnv wires a fabric to a real loopback TCP connection stored in a
// table, plus a supervisor loop resolving requests against that table.
type testEnv struct {
	fabric *Fabric
	table  *conn.Table
	conn   *conn.TCPConn
	peer   *transport.StreamConn // the far end, for reading what workers send
	prof   *metrics.Profile
	stop   func()
}

func newTestEnv(t *testing.T, mode Mode, workers int) *testEnv {
	t.Helper()
	prof := metrics.NewProfile()
	fabric, err := NewFabric(mode, workers, 0, prof)
	if err != nil {
		t.Fatalf("NewFabric(%s): %v", mode, err)
	}
	table, tcpConn, peer := testLoopback(t, prof)

	// Supervisor loop: resolve each request against the table.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for req := range fabric.Requests() {
			c := table.Get(req.ConnID)
			if c == nil || c.State() == conn.StateClosed {
				fabric.Respond(req, nil, ErrConnGone)
				continue
			}
			fabric.Respond(req, c, nil)
		}
	}()

	env := &testEnv{
		fabric: fabric,
		table:  table,
		conn:   tcpConn,
		peer:   peer,
		prof:   prof,
	}
	env.stop = func() {
		fabric.Close()
		env.peer.Close()
		table.Remove(tcpConn)
	}
	t.Cleanup(env.stop)
	return env
}

// testLoopback dials a loopback TCP connection, inserts the server side
// into a fresh table (so unix mode can pass a real socket fd), and returns
// the client end for reading what workers send.
func testLoopback(t *testing.T, prof *metrics.Profile) (*conn.Table, *conn.TCPConn, *transport.StreamConn) {
	t.Helper()
	table := conn.NewTable(prof)
	tcpConn, peer := dialLoopback(t, table)
	return table, tcpConn, peer
}

// dialLoopback adds one more loopback connection to table.
func dialLoopback(t *testing.T, table *conn.Table) (*conn.TCPConn, *transport.StreamConn) {
	t.Helper()
	srvSide, cli := testutil.LoopbackPair(t)
	return table.Insert(transport.NewStreamConn(srvSide), time.Minute), transport.NewStreamConn(cli)
}

func testMsg(i int) *sipmsg.Message {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.BYE,
		RequestURI: sipmsg.URI{User: "b", Host: "example.com"},
		From:       sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "x"}, Params: map[string]string{"tag": "t"}},
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: "b", Host: "y"}},
		CallID:     sipmsg.NewCallID("x"),
		CSeq:       uint32(i + 1),
		Via:        sipmsg.Via{Transport: "TCP", Host: "x", Port: 5060},
	})
}

func modes(t *testing.T) []Mode {
	ms := []Mode{ModeChan}
	if runtime.GOOS == "linux" {
		ms = append(ms, ModeUnix)
	}
	return ms
}

func TestRequestFDAndSend(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(string(mode), func(t *testing.T) {
			env := newTestEnv(t, mode, 2)
			h, err := env.fabric.RequestFD(0, env.conn)
			if err != nil {
				t.Fatalf("RequestFD: %v", err)
			}
			if !h.Valid() {
				t.Error("fresh handle invalid")
			}
			want := testMsg(1)
			if err := h.Send(want); err != nil {
				t.Fatalf("Send: %v", err)
			}
			got, err := env.peer.ReadMessage()
			if err != nil {
				t.Fatalf("peer read: %v", err)
			}
			if got.CallID() != want.CallID() {
				t.Error("message mismatch")
			}
			if err := h.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if env.prof.Counter(metrics.MetricIPCCount).Value() != 1 {
				t.Error("IPC count not recorded")
			}
		})
	}
}

func TestRequestFDConnGone(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(string(mode), func(t *testing.T) {
			env := newTestEnv(t, mode, 1)
			env.table.Remove(env.conn)
			if _, err := env.fabric.RequestFD(0, env.conn); err != ErrConnGone {
				t.Errorf("err = %v, want ErrConnGone", err)
			}
		})
	}
}

func TestConcurrentWorkersInterleaveCleanly(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(string(mode), func(t *testing.T) {
			const workers, per = 4, 25
			env := newTestEnv(t, mode, workers)

			var readErr error
			var gotMu sync.Mutex
			got := map[string]bool{}
			readDone := make(chan struct{})
			go func() {
				defer close(readDone)
				for i := 0; i < workers*per; i++ {
					m, err := env.peer.ReadMessage()
					if err != nil {
						readErr = err
						return
					}
					gotMu.Lock()
					got[m.CallID()] = true
					gotMu.Unlock()
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						h, err := env.fabric.RequestFD(w, env.conn)
						if err != nil {
							t.Errorf("worker %d RequestFD: %v", w, err)
							return
						}
						if err := h.Send(testMsg(w*per + i)); err != nil {
							t.Errorf("worker %d Send: %v", w, err)
						}
						h.Close()
					}
				}(w)
			}
			wg.Wait()
			select {
			case <-readDone:
			case <-time.After(10 * time.Second):
				t.Fatal("peer did not receive all messages (stream corrupted?)")
			}
			if readErr != nil {
				t.Fatalf("peer read error (messages interleaved?): %v", readErr)
			}
			if len(got) != workers*per {
				t.Errorf("received %d distinct messages, want %d", len(got), workers*per)
			}
		})
	}
}

func TestUnixModeHandlesAreIndependentFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("unix fd passing is linux-only")
	}
	env := newTestEnv(t, ModeUnix, 1)
	h1, err := env.fabric.RequestFD(0, env.conn)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := env.fabric.RequestFD(0, env.conn)
	if err != nil {
		t.Fatal(err)
	}
	// Closing one passed descriptor must not affect the other.
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Send(testMsg(3)); err != nil {
		t.Fatalf("send on h2 after h1 close: %v", err)
	}
	if _, err := env.peer.ReadMessage(); err != nil {
		t.Fatalf("peer read: %v", err)
	}
	h2.Close()
}

func TestHandleValidReflectsConnState(t *testing.T) {
	env := newTestEnv(t, ModeChan, 1)
	h, err := env.fabric.RequestFD(0, env.conn)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Error("handle should be valid")
	}
	env.table.Remove(env.conn)
	if h.Valid() {
		t.Error("handle valid after connection destroyed")
	}
	if err := h.Send(testMsg(1)); err != conn.ErrClosed {
		t.Errorf("Send on closed conn = %v, want ErrClosed", err)
	}
}

func TestFabricCloseUnblocksWorkers(t *testing.T) {
	prof := metrics.NewProfile()
	fabric, err := NewFabric(ModeChan, 1, 0, prof)
	if err != nil {
		t.Fatal(err)
	}
	table := conn.NewTable(prof)
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	c := table.Insert(transport.NewStreamConn(c1), time.Minute)

	// Nobody drains Requests(): fill the buffered queue, then one more
	// request blocks until Close.
	errc := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := fabric.RequestFD(0, c)
			errc <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)
	fabric.Close()
	for i := 0; i < 4; i++ {
		select {
		case err := <-errc:
			if err != ErrShutdown {
				t.Errorf("err = %v, want ErrShutdown", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("worker still blocked after Close")
		}
	}
}

func TestDirectHandleNoIPC(t *testing.T) {
	env := newTestEnv(t, ModeChan, 1)
	before := env.prof.Counter(metrics.MetricIPCCount).Value()
	h := DirectHandle(env.conn)
	if err := h.Send(testMsg(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := env.peer.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if env.prof.Counter(metrics.MetricIPCCount).Value() != before {
		t.Error("DirectHandle performed IPC")
	}
	if err := h.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestIPCTimeAccounted(t *testing.T) {
	env := newTestEnv(t, ModeChan, 1)
	for i := 0; i < 10; i++ {
		h, err := env.fabric.RequestFD(0, env.conn)
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	snap := env.prof.Snapshot()
	if snap.Timers[metrics.MetricIPCTime].Count != 10 {
		t.Errorf("IPC timer count = %d", snap.Timers[metrics.MetricIPCTime].Count)
	}
	if snap.Timers[metrics.MetricIPCTime].Total <= 0 {
		t.Error("IPC time not accumulated")
	}
}

func TestFabricMode(t *testing.T) {
	f, err := NewFabric(ModeChan, 1, 0, metrics.NewProfile())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mode() != ModeChan {
		t.Errorf("Mode = %q", f.Mode())
	}
	f.Close() // double Close is safe
}

// TestFabricRejectsUnknownMode: a mode that is neither chan nor unix has no
// socketpairs, so accepting it would leave the first fd request to
// dereference a port that was never built.
func TestFabricRejectsUnknownMode(t *testing.T) {
	for _, mode := range []Mode{"unx", ""} {
		if f, err := NewFabric(mode, 1, 0, metrics.NewProfile()); err == nil {
			f.Close()
			t.Errorf("NewFabric(%q) accepted an unknown mode", mode)
		}
	}
}

func TestHandleCloseWithoutCloser(t *testing.T) {
	h := &Handle{}
	if err := h.Close(); err != nil {
		t.Errorf("Close on closerless handle: %v", err)
	}
	if h.Valid() {
		t.Error("nil-conn handle reported valid")
	}
}

// A stalled supervisor (never drains Requests, never Responds) must not
// block workers forever: the per-request deadline turns the hang into a
// typed timeout error the proxy can map to 503.
func TestRequestFDTimeoutOnStalledSupervisor(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(string(mode), func(t *testing.T) {
			prof := metrics.NewProfile()
			fabric, err := NewFabric(mode, 1, 100*time.Millisecond, prof)
			if err != nil {
				t.Fatal(err)
			}
			defer fabric.Close()
			table, c, peer := testLoopback(t, prof)
			defer peer.Close()
			defer table.Remove(c)

			// Two concurrent requests against a 1-deep queue: one sits
			// enqueued but unanswered, the other never enqueues. Both paths
			// must time out.
			errc := make(chan error, 2)
			start := time.Now()
			for i := 0; i < 2; i++ {
				go func() {
					_, err := fabric.RequestFD(0, c)
					errc <- err
				}()
			}
			for i := 0; i < 2; i++ {
				select {
				case err := <-errc:
					var te *TimeoutError
					if !errors.As(err, &te) {
						t.Fatalf("err = %v, want *TimeoutError", err)
					}
					if te.Worker != 0 || !te.Timeout() {
						t.Errorf("TimeoutError fields: %+v", te)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("worker still blocked past the deadline")
				}
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("timeouts took %v with a 100ms deadline", d)
			}
			if n := prof.Counter(metrics.MetricIPCTimeouts).Value(); n != 2 {
				t.Errorf("timeout counter = %d, want 2", n)
			}
		})
	}
}

// Unix-mode responses arrive in request order, so the response to an
// abandoned (timed-out) request eventually lands in the socketpair. The
// next request must drain it — closing the stale passed fd — and return
// the response to its own request, not the stale one.
func TestUnixStaleResponseDrained(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("unix fd passing is linux-only")
	}
	prof := metrics.NewProfile()
	fabric, err := NewFabric(ModeUnix, 1, 100*time.Millisecond, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	table, c, peer := testLoopback(t, prof)
	defer peer.Close()
	defer table.Remove(c)
	fdsBefore := testutil.OpenFDs(t)

	// First request: the supervisor answers only after the worker gave up.
	if _, err := fabric.RequestFD(0, c); !errors.As(err, new(*TimeoutError)) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	late := <-fabric.Requests()
	fabric.Respond(late, c, nil) // stale response now sits in the socketpair

	// Second request, answered promptly: the worker must discard the stale
	// response first and hand back a working handle for this one.
	go func() {
		req := <-fabric.Requests()
		fabric.Respond(req, c, nil)
	}()
	h, err := fabric.RequestFD(0, c)
	if err != nil {
		t.Fatalf("RequestFD after stale response: %v", err)
	}
	if !h.Valid() {
		t.Error("handle invalid")
	}
	want := testMsg(1)
	if err := h.Send(want); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := peer.ReadMessage()
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if got.CallID() != want.CallID() {
		t.Error("message mismatch")
	}
	if err := h.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}

	// Only the handle actually delivered to a worker counts as issued; the
	// stale response's fd was closed during the drain, so the ledger reads
	// one issued, one closed — no leak.
	if issued, closed := testutil.HandleLedger(prof); issued != 1 || closed != 1 {
		t.Errorf("handle ledger issued=%d closed=%d, want 1/1", issued, closed)
	}
	testutil.CheckFDs(t, fdsBefore)
}

// Every issued handle that is closed must balance the ledger, and a double
// Close must not double-count.
func TestHandleLedgerBalances(t *testing.T) {
	for _, mode := range modes(t) {
		t.Run(string(mode), func(t *testing.T) {
			env := newTestEnv(t, mode, 1)
			const n = 5
			for i := 0; i < n; i++ {
				h, err := env.fabric.RequestFD(0, env.conn)
				if err != nil {
					t.Fatal(err)
				}
				h.Close()
				h.Close() // idempotent: must not inflate handles_closed
			}
			issued, closed := testutil.HandleLedger(env.prof)
			if issued != n || closed != n {
				t.Errorf("handle ledger issued=%d closed=%d, want %d/%d", issued, closed, n, n)
			}
		})
	}
}
