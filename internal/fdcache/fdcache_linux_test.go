//go:build linux

package fdcache

import (
	"syscall"
	"testing"
	"time"

	"gosip/internal/conn"
	"gosip/internal/ipc"
	"gosip/internal/testutil"
	"gosip/internal/transport"
)

// loopbackConn inserts the accepted side of a real TCP connection: unix
// mode passes its descriptor.
func (f *fixture) loopbackConn(t *testing.T) *conn.TCPConn {
	t.Helper()
	srv, cli := testutil.LoopbackPair(t)
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return f.table.Insert(transport.NewStreamConn(srv), time.Minute)
}

// In unix mode a cached handle is a raw descriptor: one open descriptor per
// entry, nothing behind it that would close it if the cache forgot to. Every
// path that drops an entry must give the descriptor back, and a handle
// parked in the cache must leave its socket as the owning reader needs it.
func TestRawHandlesAreClosedOnEveryPath(t *testing.T) {
	fx := newFixture()
	fabric, err := ipc.NewFabric(ipc.ModeUnix, 1, 0, fx.prof)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	go func() {
		for req := range fabric.Requests() {
			fabric.Respond(req, fx.table.Get(req.ConnID), nil)
		}
	}()
	conns := make([]*conn.TCPConn, 6)
	for i := range conns {
		conns[i] = fx.loopbackConn(t)
	}
	request := func(c *conn.TCPConn) *ipc.Handle {
		t.Helper()
		h, err := fabric.RequestFD(0, c)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	base := testutil.OpenFDs(t)
	held := func(step string, want int) {
		t.Helper()
		if got := testutil.OpenFDs(t) - base; got != want {
			t.Fatalf("after %s: %d descriptors held by handles, want %d", step, got, want)
		}
	}

	cache := New(2, fx.prof)
	cache.Put(conns[0].ID(), request(conns[0]))
	held("Put", 1)
	if nb, err := testutil.Nonblocking(conns[0].Stream().NetConn().(syscall.Conn)); err != nil || !nb {
		t.Errorf("socket non-blocking = %v (err %v) with a handle parked in the cache", nb, err)
	}
	cache.Put(conns[0].ID(), request(conns[0]))
	held("replacement", 1)
	cache.Put(conns[1].ID(), request(conns[1]))
	cache.Put(conns[2].ID(), request(conns[2]))
	held("LRU eviction", 2)
	cache.Invalidate(conns[1].ID())
	held("Invalidate", 1)

	// MarkClosed invalidates a connection without closing its own socket,
	// so only handles move the count.
	conns[2].MarkClosed()
	if cache.Get(conns[2].ID()) != nil {
		t.Fatal("stale handle returned")
	}
	held("stale Get", 0)
	h := request(conns[3])
	conns[3].MarkClosed()
	cache.Put(conns[3].ID(), h)
	held("invalid Put", 0)
	cache.Put(conns[4].ID(), request(conns[4]))
	cache.Put(conns[5].ID(), request(conns[5]))
	conns[4].MarkClosed()
	if n := cache.Sweep(); n != 1 {
		t.Fatalf("Sweep dropped %d, want 1", n)
	}
	held("Sweep", 1)
	cache.Close()
	held("Close", 0)
	testutil.CheckHandleLedger(t, fx.prof)
}
