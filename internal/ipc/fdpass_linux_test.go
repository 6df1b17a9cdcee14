//go:build linux

package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"gosip/internal/conn"
	"gosip/internal/metrics"
	"gosip/internal/testutil"
)

// Passing a descriptor must not touch the socket it names. File().Fd() put
// the shared open file description into blocking mode until the worker's
// re-wrap set it back: in that window the owning reader's next read parked
// an OS thread that no read deadline — the idle-return path — could
// interrupt. The look happens with the response still in the socketpair,
// i.e. before any worker could have repaired the mode.
func TestPassingLeavesSocketNonblocking(t *testing.T) {
	prof := metrics.NewProfile()
	fabric, err := NewFabric(ModeUnix, 1, 0, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	table, c, peer := testLoopback(t, prof)
	defer peer.Close()
	defer table.Remove(c)
	sock := c.Stream().NetConn().(syscall.Conn)
	fdsBefore := testutil.OpenFDs(t)

	port := fabric.workers[0].unix
	for i := 0; i < 1000; i++ {
		fabric.Respond(Request{ConnID: c.ID(), Worker: 0}, c, nil)
		if nb, err := testutil.Nonblocking(sock); err != nil || !nb {
			t.Fatalf("request %d: owned socket non-blocking = %v (err %v) with its descriptor in flight", i, nb, err)
		}
		fd, err := port.recvFD(time.Time{})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if err := closeFD(fd); err != nil {
			t.Fatal(err)
		}
	}
	testutil.CheckFDs(t, fdsBefore)
}

// A response that is not exactly one whole descriptor is rejected, and
// every descriptor it did install is closed: nothing else ever would.
func TestRecvRejectsMalformedResponses(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		nfds    int
	}{
		{"two descriptors", respFD, 2},
		{"truncated control message", respFD, 4}, // the worker's buffer has room for two
		{"descriptor on a conn-gone answer", respGone, 1},
		{"no descriptor", respFD, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof := metrics.NewProfile()
			fabric, err := NewFabric(ModeUnix, 1, 0, prof)
			if err != nil {
				t.Fatal(err)
			}
			defer fabric.Close()
			table, c, peer := testLoopback(t, prof)
			defer peer.Close()
			defer table.Remove(c)
			fdsBefore := testutil.OpenFDs(t)

			// A supervisor that answers the first request wrongly, the
			// second properly.
			go func() {
				<-fabric.Requests()
				rc, _ := c.Stream().NetConn().(syscall.Conn).SyscallConn()
				_ = rc.Control(func(fd uintptr) {
					var oob []byte
					if tc.nfds > 0 {
						fds := make([]int, tc.nfds)
						for i := range fds {
							fds[i] = int(fd)
						}
						oob = syscall.UnixRights(fds...)
					}
					_, _, _ = fabric.workers[0].unix.sup.WriteMsgUnix(tc.payload, oob, nil)
				})
				fabric.Respond(<-fabric.Requests(), c, nil)
			}()

			if _, err := fabric.RequestFD(0, c); !errors.Is(err, errBadResponse) {
				t.Fatalf("err = %v, want errBadResponse", err)
			}
			testutil.CheckFDs(t, fdsBefore)

			h, err := fabric.RequestFD(0, c)
			if err != nil {
				t.Fatalf("RequestFD after a rejected response: %v", err)
			}
			if err := h.Send(testMsg(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := peer.ReadMessage(); err != nil {
				t.Fatal(err)
			}
			h.Close()
			testutil.CheckFDs(t, fdsBefore)
			if issued, closed := testutil.HandleLedger(prof); issued != 1 || closed != 1 {
				t.Errorf("handle ledger issued=%d closed=%d, want 1/1", issued, closed)
			}
		})
	}
}

func TestRequestCloseCyclesLeakNoFDs(t *testing.T) {
	env := newTestEnv(t, ModeUnix, 1)
	fdsBefore := testutil.OpenFDs(t)
	for i := 0; i < 10000; i++ {
		h, err := env.fabric.RequestFD(0, env.conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	testutil.CheckFDs(t, fdsBefore)
	testutil.CheckHandleLedger(t, env.prof)
}

// Close on a raw descriptor is exactly-once: the kernel hands the number to
// the next open, and neither a second Close nor a late Send may reach it.
func TestHandleCloseExactlyOnce(t *testing.T) {
	env := newTestEnv(t, ModeUnix, 1)
	h, err := env.fabric.RequestFD(0, env.conn)
	if err != nil {
		t.Fatal(err)
	}
	number := h.fd
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	const content = "unrelated"
	path := t.TempDir() + "/unrelated"
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rc, err := f.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var got int
	_ = rc.Control(func(fd uintptr) { got = int(fd) })
	if got != number {
		t.Skipf("descriptor %d was not reused (the file got %d): nothing to prove", number, got)
	}

	if err := h.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := h.Send(testMsg(1)); err != conn.ErrClosed {
		t.Errorf("Send after Close = %v, want conn.ErrClosed", err)
	}
	data, err := io.ReadAll(f)
	if err != nil || string(data) != content {
		t.Errorf("the unrelated file reads %q, %v after the handle's second Close and late Send", data, err)
	}
	if issued, closed := testutil.HandleLedger(env.prof); issued != 1 || closed != 1 {
		t.Errorf("handle ledger issued=%d closed=%d, want 1/1", issued, closed)
	}
}

// The stalled receiver of Shen & Schulzrinne's TCP overload analysis: a
// peer that never reads must cost a non-owner worker one bounded wait and a
// typed error, not the worker itself.
func TestStalledReceiverTimesOut(t *testing.T) {
	const deadline = 200 * time.Millisecond
	prof := metrics.NewProfile()
	fabric, err := NewFabric(ModeUnix, 2, deadline, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	table, stalled, deaf := testLoopback(t, prof)
	healthy, reading := dialLoopback(t, table)
	defer deaf.Close()
	defer reading.Close()
	defer table.Remove(stalled)
	defer table.Remove(healthy)
	// Small buffers on both sides, so the connection stalls after little data.
	if err := stalled.Stream().NetConn().(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	if err := deaf.NetConn().(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	go func() {
		for req := range fabric.Requests() {
			fabric.Respond(req, table.Get(req.ConnID), nil)
		}
	}()
	fdsBefore := testutil.OpenFDs(t)

	h, err := fabric.RequestFD(1, stalled)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64<<10)
	var sendErr error
	var took time.Duration
	for i := 0; i < 1024 && sendErr == nil; i++ {
		start := time.Now()
		sendErr = h.SendRaw(chunk)
		took = time.Since(start)
	}
	var te *TimeoutError
	if !errors.As(sendErr, &te) {
		t.Fatalf("send to a peer that never reads = %v, want *TimeoutError", sendErr)
	}
	if te.Worker != 1 || !te.Write || te.Deadline != deadline {
		t.Errorf("TimeoutError = %+v", te)
	}
	if took < deadline/2 || took > deadline+time.Second {
		t.Errorf("the stalled send took %v against a %v deadline", took, deadline)
	}
	if n := prof.Counter(metrics.MetricIPCWriteTimeouts).Value(); n != 1 {
		t.Errorf("%s = %d, want 1", metrics.MetricIPCWriteTimeouts, n)
	}
	if n := prof.Counter(metrics.MetricIPCWriteWaits).Value(); n < 1 {
		t.Errorf("%s = %d, want at least 1", metrics.MetricIPCWriteWaits, n)
	}

	// The half-written message cost the peer its connection: the owning
	// reader sees the stream end and retires it the usual way.
	readErr := make(chan error, 1)
	go func() {
		_, err := stalled.Stream().ReadMessage()
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err == nil {
			t.Error("the owning reader read a message from a shut-down socket")
		}
	case <-time.After(2 * time.Second):
		t.Error("the owning reader is still blocked on the shut-down socket")
	}
	if err := h.SendRaw(chunk); err == nil || errors.As(err, &te) {
		t.Errorf("send after the shutdown = %v, want an immediate write error", err)
	}
	h.Close()

	// The same worker goes on serving its other connections.
	h2, err := fabric.RequestFD(1, healthy)
	if err != nil {
		t.Fatal(err)
	}
	want := testMsg(2)
	if err := h2.Send(want); err != nil {
		t.Fatal(err)
	}
	if got, err := reading.ReadMessage(); err != nil || got.CallID() != want.CallID() {
		t.Errorf("the healthy connection delivered %v, %v", got, err)
	}
	h2.Close()
	testutil.CheckFDs(t, fdsBefore)
	testutil.CheckHandleLedger(t, prof)
}

// Messages that a full socket buffer splits into several writes stay whole
// in the stream: the send lock is held until the last byte is in.
func TestSplitWritesStayWhole(t *testing.T) {
	const senders, perSender, size = 8, 40, 32 << 10
	prof := metrics.NewProfile()
	fabric, err := NewFabric(ModeUnix, senders, 10*time.Second, prof)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	table, c, peer := testLoopback(t, prof)
	defer peer.Close()
	defer table.Remove(c)
	// Only the send side is small: every message overflows it, and the
	// peer's default receive buffer keeps the stream moving.
	if err := c.Stream().NetConn().(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	go func() {
		for req := range fabric.Requests() {
			fabric.Respond(req, c, nil)
		}
	}()

	// A message is a header — sender, sequence number, length — and a body
	// of one repeated byte that the header determines.
	fill := func(sender, seq int) byte { return byte(sender*perSender + seq) }
	readDone := make(chan error, 1)
	go func() {
		next := make([]int, senders)
		body := make([]byte, size)
		var hdr [8]byte
		for n := 0; n < senders*perSender; n++ {
			if _, err := io.ReadFull(peer.NetConn(), hdr[:]); err != nil {
				readDone <- err
				return
			}
			sender, seq := int(hdr[0]), int(binary.BigEndian.Uint16(hdr[2:]))
			if hdr[1] != 0xA5 || sender >= senders || seq != next[sender] || binary.BigEndian.Uint32(hdr[4:]) != size {
				readDone <- fmt.Errorf("message %d: header % x is not the start of a message", n, hdr)
				return
			}
			next[sender]++
			if _, err := io.ReadFull(peer.NetConn(), body); err != nil {
				readDone <- err
				return
			}
			for i, b := range body {
				if b != fill(sender, seq) {
					readDone <- fmt.Errorf("message %d (sender %d, seq %d): byte %d is %#x: another message cut in", n, sender, seq, i, b)
					return
				}
			}
		}
		readDone <- nil
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h, err := fabric.RequestFD(s, c)
			if err != nil {
				t.Errorf("sender %d: %v", s, err)
				return
			}
			defer h.Close()
			msg := make([]byte, 8+size)
			for seq := 0; seq < perSender; seq++ {
				msg[0], msg[1] = byte(s), 0xA5
				binary.BigEndian.PutUint16(msg[2:], uint16(seq))
				binary.BigEndian.PutUint32(msg[4:], size)
				for i := 8; i < len(msg); i++ {
					msg[i] = fill(s, seq)
				}
				if err := h.SendRaw(msg); err != nil {
					t.Errorf("sender %d message %d: %v", s, seq, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the peer did not receive every message")
	}
	if n := prof.Counter(metrics.MetricIPCWriteWaits).Value(); n == 0 {
		t.Errorf("%s = 0: no write was split, the test proved nothing", metrics.MetricIPCWriteWaits)
	}
	if n := prof.Counter(metrics.MetricIPCWriteTimeouts).Value(); n != 0 {
		t.Errorf("%s = %d against a reading peer", metrics.MetricIPCWriteTimeouts, n)
	}
}

// One fd request, send and close allocates the handle, the supervisor's
// RawConn and the two slices the control-message parsers return — down
// from 25 when the descriptor was re-wrapped on both sides.
func TestFDRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	env := newTestEnv(t, ModeUnix, 1)
	msg := testMsg(1)
	allocs := testing.AllocsPerRun(200, func() {
		h, err := env.fabric.RequestFD(0, env.conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Send(msg); err != nil {
			t.Fatal(err)
		}
		h.Close()
	})
	if allocs > 4 {
		t.Errorf("RequestFD + Send + Close = %.0f allocs, want at most 4", allocs)
	}
}
