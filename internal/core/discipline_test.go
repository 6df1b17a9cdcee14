package core

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/loadgen"
	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/phone"
	"gosip/internal/sipmsg"
	"gosip/internal/testutil"
	"gosip/internal/transport"
	"gosip/internal/userdb"
)

// registerBurst renders n pipelined REGISTERs for user from the client end
// la — one Call-ID, CSeq 1..n — as a single buffer.
func registerBurst(la *net.TCPAddr, user, callID string, n int) []byte {
	var buf []byte
	for i := 1; i <= n; i++ {
		req := sipmsg.NewRequest(sipmsg.RequestSpec{
			Method:     sipmsg.REGISTER,
			RequestURI: sipmsg.URI{Host: testDomain},
			From: sipmsg.NameAddr{
				URI:    sipmsg.URI{User: user, Host: testDomain},
				Params: map[string]string{"tag": "burst"},
			},
			To:      sipmsg.NameAddr{URI: sipmsg.URI{User: user, Host: testDomain}},
			CallID:  callID,
			CSeq:    uint32(i),
			Via:     sipmsg.Via{Transport: "TCP", Host: la.IP.String(), Port: la.Port},
			Contact: &sipmsg.NameAddr{URI: sipmsg.URI{User: user, Host: la.IP.String(), Port: la.Port}},
			Expires: 60,
		})
		buf = req.AppendTo(buf)
	}
	return buf
}

// sendBursts opens conns connections to addr, writes a burst of n pipelined
// REGISTERs on every one of them at the same moment, and returns each
// connection's response statuses. It fails the test unless every
// connection's responses come back in CSeq order and every 503 carries a
// Retry-After.
func sendBursts(t *testing.T, addr string, conns, n int) [][]int {
	t.Helper()
	scs := make([]*transport.StreamConn, conns)
	bursts := make([][]byte, conns)
	for i := range scs {
		sc, err := transport.DialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		scs[i] = sc
		bursts[i] = registerBurst(sc.LocalAddr().(*net.TCPAddr), "user"+strconv.Itoa(i), fmt.Sprintf("burst-%d", i), n)
	}
	statuses := make([][]int, conns)
	errs := make(chan error, conns)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, sc := range scs {
		wg.Add(1)
		go func(i int, sc *transport.StreamConn) {
			defer wg.Done()
			<-start
			if err := sc.WriteRaw(bursts[i]); err != nil {
				errs <- err
				return
			}
			sc.SetReadDeadline(time.Now().Add(20 * time.Second))
			for want := uint32(1); want <= uint32(n); want++ {
				m, err := sc.ReadMessage()
				if err != nil {
					errs <- fmt.Errorf("conn %d: response %d/%d: %w", i, want, n, err)
					return
				}
				seq, _, _ := m.CSeq()
				_, hasRA := m.Get("Retry-After")
				code := m.StatusCode
				m.Release()
				statuses[i] = append(statuses[i], code)
				if seq != want {
					errs <- fmt.Errorf("conn %d: response %d answers CSeq %d", i, want, seq)
					return
				}
				if code == sipmsg.StatusServiceUnavail && !hasRA {
					errs <- fmt.Errorf("conn %d: 503 for CSeq %d carries no Retry-After", i, seq)
					return
				}
			}
		}(i, sc)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	return statuses
}

// lookupRecorder is a user store that records the most lookups it ever
// had running at once; each lookup holds for hold.
type lookupRecorder struct {
	*userdb.MemoryBackend
	hold     time.Duration
	running  atomic.Int32
	mostSeen atomic.Int32
}

func (b *lookupRecorder) Fetch(key string) (userdb.User, bool) {
	n := b.running.Add(1)
	for m := b.mostSeen.Load(); n > m && !b.mostSeen.CompareAndSwap(m, n); m = b.mostSeen.Load() {
	}
	time.Sleep(b.hold)
	b.running.Add(-1)
	return b.MemoryBackend.Fetch(key)
}

// TestStreamProcessDiscipline pins the two ownership policies on the
// receive path. Eight connections on one worker send at once: the process
// model (tcp) runs one message per worker at a time, so the database never
// sees two of that worker's lookups together; the shared address space
// (threaded) runs its readers' pipelines side by side.
func TestStreamProcessDiscipline(t *testing.T) {
	for _, tc := range []struct {
		arch   Architecture
		serial bool
	}{{ArchTCP, true}, {ArchThreaded, false}} {
		t.Run(string(tc.arch), func(t *testing.T) {
			db := &lookupRecorder{MemoryBackend: userdb.NewMemoryBackend(), hold: 10 * time.Millisecond}
			srv := startServer(t, Config{Arch: tc.arch, Workers: 1, DB: userdb.Config{Backend: db}})
			for _, st := range sendBursts(t, srv.Addr(), 8, 3) {
				for _, code := range st {
					if code != sipmsg.StatusOK {
						t.Errorf("REGISTER answered %d", code)
					}
				}
			}
			most := db.mostSeen.Load()
			if tc.serial && most != 1 {
				t.Errorf("%d lookups ran at once on one tcp worker, want 1", most)
			}
			if !tc.serial && most < 2 {
				t.Errorf("at most %d lookup ran at once on the threaded server, want concurrent readers", most)
			}
		})
	}
}

// TestStreamPipelinedBurstOrder writes 200 REGISTERs on one connection in a
// single write: the reader that framed them runs each to completion before
// framing the next, so the answers leave in CSeq order.
func TestStreamPipelinedBurstOrder(t *testing.T) {
	for _, arch := range []Architecture{ArchTCP, ArchThreaded} {
		t.Run(string(arch), func(t *testing.T) {
			srv := startServer(t, Config{Arch: arch, Workers: 2})
			st := sendBursts(t, srv.Addr(), 1, 200)
			if len(st[0]) != 200 {
				t.Fatalf("%d of 200 answers", len(st[0]))
			}
		})
	}
}

// TestStreamDisciplineManyConns runs calls over 64 connections and 8
// workers on both stream architectures, with half the callees reachable
// only by a connection the proxy dials from inside the INVITE handler and
// adopts there. Run it under -race: readers run engine, fabric and
// fd-cache code themselves.
func TestStreamDisciplineManyConns(t *testing.T) {
	const pairs, calls = 32, 3
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tcp", Config{Arch: ArchTCP, Workers: 8, IPCMode: ipc.ModeUnix, FDCache: true, ConnMgr: connmgr.KindPQueue}},
		{"threaded", Config{Arch: ArchThreaded, Workers: 8, ConnMgr: connmgr.KindPQueue}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startServer(t, tc.cfg)
			newPhone := func(user string, role phone.Role) *phone.Phone {
				p, err := phone.New(phone.Config{
					Transport: transport.TCP, ProxyAddr: srv.Addr(), Domain: testDomain, User: user,
					ResponseTimeout: 5 * time.Second,
				}, role)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })
				if err := p.Register(); err != nil {
					t.Fatal(err)
				}
				return p
			}
			callers := make([]*phone.Phone, pairs)
			for i := 0; i < pairs; i++ {
				callee := newPhone(userdb.UserName(2*i+1), phone.Callee)
				if i%2 == 0 {
					// No source connection to reuse: delivery must dial the
					// callee's listener.
					srv.Location().Register(userdb.UserName(2*i+1)+"@"+testDomain, location.Binding{
						Contact:   callee.Contact(),
						Transport: string(transport.TCP),
					}, time.Hour, time.Now())
				}
				callers[i] = newPhone(userdb.UserName(2*i), phone.Caller)
			}
			var wg sync.WaitGroup
			for i, caller := range callers {
				wg.Add(1)
				go func(i int, caller *phone.Phone) {
					defer wg.Done()
					for n := 0; n < calls; n++ {
						if err := caller.Call(userdb.UserName(2*i + 1)); err != nil {
							t.Errorf("pair %d call %d: %v", i, n, err)
							return
						}
					}
				}(i, caller)
			}
			wg.Wait()
			if got, want := srv.Profile().Counter(metrics.MetricConnsAccepted).Value(), int64(2*pairs+pairs/2); got < want {
				t.Errorf("%d connections entered the table, want at least %d (64 accepted + 16 dialed)", got, want)
			}
		})
	}
}

// TestStreamCloseUnderLoad closes each stream server while 64 connections
// are placing authenticated calls through it. Close joins the readers
// before it closes the fd caches and the substrate, so no handler is still
// in its database lookup when Close returns, and nothing a handler held
// survives it: goroutines, descriptors, pooled messages and passed fd
// handles all return to where they started.
func TestStreamCloseUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"tcp", Config{Arch: ArchTCP, Workers: 8, IPCMode: ipc.ModeUnix, FDCache: true, ConnMgr: connmgr.KindPQueue}},
		{"threaded", Config{Arch: ArchThreaded, Workers: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Start the runtime's poller first so its descriptors predate the
			// count.
			if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
				ln.Close()
			}
			goroutines := runtime.NumGoroutine()
			fds := testutil.OpenFDs(t)
			pooled := sipmsg.PoolOutstanding()

			db := &lookupRecorder{MemoryBackend: userdb.NewMemoryBackend(), hold: time.Millisecond}
			cfg := tc.cfg
			cfg.Auth = true
			cfg.DB = userdb.Config{Backend: db}
			srv := startServer(t, cfg)
			done := make(chan loadgen.Result, 1)
			go func() {
				res, _ := loadgen.Run(loadgen.Config{
					Transport:       transport.TCP,
					ProxyAddr:       srv.Addr(),
					Domain:          testDomain,
					Pairs:           32,
					CallsPerCaller:  1000,
					ResponseTimeout: 200 * time.Millisecond,
				})
				done <- res
			}()
			calls := srv.Profile().Counter(metrics.MetricTxnCreated)
			for deadline := time.Now().Add(10 * time.Second); calls.Value() < 200; {
				if time.Now().After(deadline) {
					t.Fatalf("only %d transactions before Close", calls.Value())
				}
				time.Sleep(time.Millisecond)
			}
			srv.Close()
			if n := db.running.Load(); n != 0 {
				t.Errorf("%d handlers still in a database lookup after Close returned", n)
			}
			select {
			case res := <-done:
				if res.CallsCompleted == 0 {
					t.Fatalf("no call completed before Close: %v", res)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("load generator still running a minute after Close")
			}

			testutil.CheckGoroutines(t, goroutines)
			for deadline := time.Now().Add(2 * time.Second); testutil.OpenFDs(t) != fds && time.Now().Before(deadline); {
				time.Sleep(10 * time.Millisecond)
			}
			testutil.CheckFDs(t, fds)
			if got := sipmsg.PoolOutstanding(); got != pooled {
				t.Errorf("%d pooled messages outstanding after Close, %d before", got, pooled)
			}
			testutil.CheckHandleLedger(t, srv.Profile())
			if tc.cfg.Arch == ArchTCP {
				if issued, _ := testutil.HandleLedger(srv.Profile()); issued == 0 {
					t.Error("no fd handles issued: the load never crossed workers")
				}
			}
		})
	}
}
