package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"gosip/internal/sipmsg"
)

func testMsg(i int) *sipmsg.Message {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.OPTIONS,
		RequestURI: sipmsg.URI{Host: "test.local"},
		From:       sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "x"}, Params: map[string]string{"tag": "t"}},
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: "b", Host: "y"}},
		CallID:     sipmsg.NewCallID("x"),
		CSeq:       uint32(i + 1),
		Via:        sipmsg.Via{Transport: "UDP", Host: "x", Port: 5060},
	})
}

// TestUDPDatagramAllocs pins one datagram's trip over a loopback socket —
// WriteTo, then ReadPacket and Release — at zero allocations: the
// destination and the source are netip values, and the receive buffer
// comes back to the socket's pool.
func TestUDPDatagramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	wire := testMsg(1).Serialize()
	dst := srv.LocalAddr()
	srv.SetReadDeadline(time.Now().Add(10 * time.Second))
	if got := testing.AllocsPerRun(500, func() {
		if err := cli.WriteTo(wire, dst); err != nil {
			t.Fatal(err)
		}
		pkt, err := srv.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Src != cli.LocalAddr() || len(pkt.Data) != len(wire) {
			t.Fatalf("got %d bytes from %v, want %d from %v", len(pkt.Data), pkt.Src, len(wire), cli.LocalAddr())
		}
		srv.Release(pkt)
	}); got != 0 {
		t.Errorf("a datagram's WriteTo + ReadPacket + Release allocates %.1f times, want 0", got)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	want := testMsg(1).Serialize()
	if err := cli.WriteTo(want, srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	pkt, err := srv.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt.Data) != string(want) {
		t.Error("payload mismatch")
	}
	if pkt.Src != cli.LocalAddr() {
		t.Errorf("src = %v, want %v", pkt.Src, cli.LocalAddr())
	}
	srv.Release(pkt)
}

func TestUDPConcurrentReaders(t *testing.T) {
	// The burst below is one rcvbuf's worth of datagrams; with the default
	// 208K buffer the test sits at the kernel's drop threshold whenever the
	// sender outruns the readers (single-CPU machines). An explicit receive
	// buffer keeps the assertion about delivery, not about scheduling luck.
	srv, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{RcvBuf: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const workers, msgs = 4, 200
	var got sync.Map
	var wg sync.WaitGroup
	var received sync.WaitGroup
	received.Add(msgs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pkt, err := srv.ReadPacket()
				if err != nil {
					return
				}
				m, perr := sipmsg.Parse(pkt.Data)
				srv.Release(pkt)
				if perr != nil {
					t.Errorf("parse: %v", perr)
				} else {
					if _, loaded := got.LoadOrStore(m.CallID(), true); loaded {
						t.Errorf("duplicate delivery of %s", m.CallID())
					}
				}
				received.Done()
			}
		}()
	}
	for i := 0; i < msgs; i++ {
		if err := cli.WriteTo(testMsg(i).Serialize(), srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { received.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for datagrams (loopback should not drop at this rate)")
	}
	srv.Close()
	wg.Wait()
}

func TestStreamConnRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		sc := NewStreamConn(c)
		defer sc.Close()
		for i := 0; i < 10; i++ {
			m, err := sc.ReadMessage()
			if err != nil {
				done <- err
				return
			}
			// Echo a response.
			if err := sc.WriteMessage(sipmsg.NewResponse(m, sipmsg.StatusOK, "tag")); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if err := cli.WriteMessage(testMsg(i)); err != nil {
			t.Fatal(err)
		}
		resp, err := cli.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != sipmsg.StatusOK {
			t.Errorf("status = %d", resp.StatusCode)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestStreamConnConcurrentWriters(t *testing.T) {
	// Many goroutines writing one connection must not interleave messages —
	// the invariant OpenSER maintains with user-level locks on shared
	// connections.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const writers, per = 8, 50
	errc := make(chan error, 1)
	countc := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		sc := NewStreamConn(c)
		n := 0
		for n < writers*per {
			if _, err := sc.ReadMessage(); err != nil {
				errc <- err
				countc <- n
				return
			}
			n++
		}
		errc <- nil
		countc <- n
	}()

	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := cli.WriteMessage(testMsg(w*per + i)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("reader failed after %d messages: %v", <-countc, err)
	}
	if got := <-countc; got != writers*per {
		t.Errorf("read %d messages, want %d", got, writers*per)
	}
	cli.Close()
}

func TestStreamConnReadDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		if c != nil {
			defer c.Close()
			time.Sleep(500 * time.Millisecond)
		}
	}()
	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := cli.ReadMessage(); err == nil {
		t.Error("expected deadline error")
	}
}

func TestListenUDPBadAddr(t *testing.T) {
	if _, err := ListenUDP("not-an-addr:x:y"); err == nil {
		t.Error("bad addr accepted")
	}
}

func TestDialTCPRefused(t *testing.T) {
	// Port 1 on loopback is almost certainly closed.
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Skip("port 1 unexpectedly open")
	}
}

func TestStreamConnLargeMessage(t *testing.T) {
	// A message with a large body must survive framing across many reads.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body := make([]byte, 48<<10)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		sc := NewStreamConn(c)
		defer sc.Close()
		m, err := sc.ReadMessage()
		if err != nil {
			done <- err
			return
		}
		if len(m.Body) != len(body) {
			t.Errorf("body length %d, want %d", len(m.Body), len(body))
		}
		done <- nil
	}()
	cli, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	m := testMsg(0)
	m.Body = body
	if err := cli.WriteMessage(m); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestUDPReadDeadline(t *testing.T) {
	s, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if _, err := s.ReadPacket(); err == nil {
		t.Fatal("expected deadline error")
	}
	if time.Since(start) > time.Second {
		t.Error("deadline not honored promptly")
	}
}

func TestUDPOversizeDatagramTruncationSafe(t *testing.T) {
	// Payloads beyond MaxDatagram cannot be sent on loopback anyway, but a
	// full-size one must round-trip unharmed.
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	payload := make([]byte, 32<<10)
	if err := cli.WriteTo(payload, srv.LocalAddr()); err != nil {
		t.Skipf("kernel rejected large datagram: %v", err)
	}
	pkt, err := srv.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt.Data) != len(payload) {
		t.Errorf("got %d bytes, want %d", len(pkt.Data), len(payload))
	}
	srv.Release(pkt)
}
