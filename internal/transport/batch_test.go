package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gosip/internal/metrics"
)

// listenBatch opens a 127.0.0.1 socket with the batched paths armed (or
// forced generic) and its own profile for counter assertions.
func listenBatch(t *testing.T, batch int, forceGeneric bool) (*UDPSocket, *metrics.Profile) {
	t.Helper()
	prof := metrics.NewProfile()
	s, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{
		BatchSize:    batch,
		ForceGeneric: forceGeneric,
		Profile:      prof,
		// Senders in these tests burst far ahead of the readers; a tuned
		// receive buffer keeps loopback loss-free so delivery asserts can
		// be exact.
		RcvBuf: 4 << 20,
		SndBuf: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, prof
}

// runBatchReceivers drains srv with `readers` goroutines using ReadBatch
// until total payloads arrive, returning the multiset of payloads.
func runBatchReceivers(t *testing.T, srv *UDPSocket, readers, batch, total int) map[string]int {
	t.Helper()
	var mu sync.Mutex
	got := make(map[string]int, total)
	n := 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			br := srv.NewBatchReader(batch)
			for {
				k, err := srv.ReadBatch(br)
				if err != nil {
					return
				}
				mu.Lock()
				for _, pkt := range br.Packets()[:k] {
					got[string(pkt.Data)]++
					n++
					if n == total {
						close(done)
					}
				}
				mu.Unlock()
			}
		}()
	}
	timedOut := false
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		timedOut = true
	}
	srv.Close()
	wg.Wait()
	if timedOut {
		t.Fatalf("timed out: received %d/%d datagrams", n, total)
	}
	return got
}

// TestBatchReadParity is the satellite parity test: the Linux mmsg path
// and the portable fallback must deliver identical packet streams —
// order-insensitive, loss-free — for the same concurrent send pattern.
func TestBatchReadParity(t *testing.T) {
	const senders, per, batch = 4, 150, 8
	want := make(map[string]int, senders*per)
	for s := 0; s < senders; s++ {
		for i := 0; i < per; i++ {
			want[fmt.Sprintf("parity-%d-%d", s, i)]++
		}
	}
	for _, forceGeneric := range []bool{false, true} {
		name := "mmsg"
		if forceGeneric {
			name = "generic"
		}
		t.Run(name, func(t *testing.T) {
			srv, _ := listenBatch(t, batch, forceGeneric)
			if !forceGeneric && mmsgAvailable && !srv.MmsgActive() {
				t.Fatal("mmsg path not armed on an mmsg-capable platform")
			}
			if forceGeneric && srv.MmsgActive() {
				t.Fatal("ForceGeneric did not disable the mmsg path")
			}
			dst := srv.LocalAddr()
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					cli, err := ListenUDP("127.0.0.1:0")
					if err != nil {
						t.Error(err)
						return
					}
					defer cli.Close()
					for i := 0; i < per; i++ {
						if err := cli.WriteTo([]byte(fmt.Sprintf("parity-%d-%d", s, i)), dst); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			got := runBatchReceivers(t, srv, 4, batch, senders*per)
			wg.Wait()
			if len(got) != len(want) {
				t.Fatalf("received %d distinct payloads, want %d", len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("payload %q delivered %d times, want %d", k, got[k], n)
				}
			}
		})
	}
}

// TestWriteBatchDelivery sends one WriteBatch through the mmsg path (where
// available) and asserts complete delivery plus the syscall amortization
// the counters should show.
func TestWriteBatchDelivery(t *testing.T) {
	const msgs, writerCap = 50, 16
	src, prof := listenBatch(t, writerCap, false)
	srv, _ := listenBatch(t, writerCap, true) // generic receive keeps sides independent
	dgs := make([]Datagram, msgs)
	want := make(map[string]int, msgs)
	for i := range dgs {
		payload := fmt.Sprintf("wb-%d", i)
		dgs[i] = Datagram{Data: []byte(payload), Dst: srv.LocalAddr()}
		want[payload]++
	}
	bw := src.NewBatchWriter(writerCap)
	if err := src.WriteBatch(bw, dgs); err != nil {
		t.Fatal(err)
	}
	got := runBatchReceivers(t, srv, 2, writerCap, msgs)
	for k, n := range want {
		if got[k] != n {
			t.Errorf("payload %q delivered %d times, want %d", k, got[k], n)
		}
	}
	sys := prof.Counter(metrics.MetricUDPSendSyscalls).Value()
	sent := prof.Counter(metrics.MetricUDPSendMsgs).Value()
	if sent != msgs {
		t.Errorf("send_msgs = %d, want %d", sent, msgs)
	}
	if src.MmsgActive() {
		// 50 messages through a 16-slot writer is 4 chunks; partial sends
		// can add calls but must stay far below one per message.
		if sys >= msgs/2 {
			t.Errorf("send_syscalls = %d for %d messages; sendmmsg not amortizing", sys, msgs)
		}
	} else if sys != msgs {
		t.Errorf("generic path send_syscalls = %d, want %d", sys, msgs)
	}
}

func TestEgressFlushReasons(t *testing.T) {
	const batch = 8
	src, prof := listenBatch(t, batch, false)
	srv, _ := listenBatch(t, batch, true)
	eg := NewEgress(src, batch, 5*time.Millisecond, prof)
	dst := srv.LocalAddr()

	total := 0
	send := func(tag string, n int) {
		for i := 0; i < n; i++ {
			if err := eg.Enqueue([]byte(fmt.Sprintf("eg-%s-%d", tag, i)), dst); err != nil {
				t.Fatalf("enqueue %s-%d: %v", tag, i, err)
			}
			total++
		}
	}

	send("full", batch) // fills the queue: flush-full fires inline
	if v := prof.Counter(metrics.MetricEgressFlushFull).Value(); v != 1 {
		t.Errorf("flush_full = %d, want 1", v)
	}
	send("drain", 3)
	eg.Drain()
	if v := prof.Counter(metrics.MetricEgressFlushDrain).Value(); v != 1 {
		t.Errorf("flush_drain = %d, want 1", v)
	}
	send("linger", 1)
	deadline := time.Now().Add(2 * time.Second)
	for prof.Counter(metrics.MetricEgressFlushLinger).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("linger flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	send("close", 2)
	eg.Close()
	if v := prof.Counter(metrics.MetricEgressFlushClose).Value(); v != 1 {
		t.Errorf("flush_close = %d, want 1", v)
	}
	// Post-close enqueues fall through to the unbatched send path.
	if err := eg.Enqueue([]byte("eg-late-0"), dst); err != nil {
		t.Fatalf("post-close enqueue: %v", err)
	}
	total++

	got := runBatchReceivers(t, srv, 1, batch, total)
	n := 0
	for _, c := range got {
		n += c
	}
	if n != total {
		t.Errorf("delivered %d datagrams, want %d", n, total)
	}
	if err := eg.Err(); err != nil {
		t.Errorf("sticky error: %v", err)
	}
}

// TestEgressConcurrent hammers one egress from several goroutines with the
// linger loop racing them — the -race configuration for the queue.
func TestEgressConcurrent(t *testing.T) {
	const writers, per = 4, 200
	src, prof := listenBatch(t, 16, false)
	srv, _ := listenBatch(t, 16, true)
	eg := NewEgress(src, 16, 100*time.Microsecond, prof)
	dst := srv.LocalAddr()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := eg.Enqueue([]byte(fmt.Sprintf("egc-%d-%d", w, i)), dst); err != nil {
					t.Errorf("enqueue: %v", err)
					return
				}
				if i%16 == 15 {
					eg.Drain()
				}
			}
		}(w)
	}
	wg.Wait()
	eg.Close()
	got := runBatchReceivers(t, srv, 2, 16, writers*per)
	if len(got) != writers*per {
		t.Errorf("received %d distinct payloads, want %d", len(got), writers*per)
	}
}

// TestReusePortShardDistribution: with a group of N sockets on one port and
// many distinct client 4-tuples, every socket must see traffic (the kernel
// hashes source tuples across them), including the first, which joined the
// group only after its bind.
func TestReusePortShardDistribution(t *testing.T) {
	if !reusePortAvailable {
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	const shards, clients, per = 4, 64, 4
	prof := metrics.NewProfile()
	socks, err := ListenUDPGroup("127.0.0.1:0", shards, UDPOptions{BatchSize: 8, Profile: prof, RcvBuf: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(socks) != shards {
		t.Fatalf("ListenUDPGroup returned %d sockets, want %d", len(socks), shards)
	}
	for _, s := range socks {
		defer s.Close()
	}
	dst := socks[0].LocalAddr()
	for i, s := range socks {
		if got := s.LocalAddr().String(); got != dst.String() {
			t.Fatalf("socket %d bound %s, socket 0 %s", i, got, dst)
		}
	}
	for c := 0; c < clients; c++ {
		cli, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < per; i++ {
			if err := cli.WriteTo([]byte(fmt.Sprintf("shard-%d-%d", c, i)), dst); err != nil {
				t.Fatal(err)
			}
		}
		cli.Close()
	}
	counts := make([]int, shards)
	totalWant := clients * per
	var mu sync.Mutex
	totalGot := 0
	var wg sync.WaitGroup
	for i, s := range socks {
		wg.Add(1)
		go func(i int, s *UDPSocket) {
			defer wg.Done()
			br := s.NewBatchReader(8)
			for {
				s.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
				n, err := s.ReadBatch(br)
				if err != nil {
					return // deadline: this shard's queue is dry
				}
				mu.Lock()
				counts[i] += n
				totalGot += n
				mu.Unlock()
			}
		}(i, s)
	}
	wg.Wait()
	if totalGot != totalWant {
		t.Fatalf("delivered %d datagrams across shards, want %d", totalGot, totalWant)
	}
	for i, n := range counts {
		if n == 0 {
			t.Errorf("shard %d received no traffic (distribution %v)", i, counts)
		}
	}
}

// TestUDPGroupSharesOneSocketWithoutReusePort pins the fallback: where
// SO_REUSEPORT is unavailable every reader shares one socket.
func TestUDPGroupSharesOneSocketWithoutReusePort(t *testing.T) {
	if reusePortAvailable {
		t.Skip("SO_REUSEPORT available here")
	}
	socks, err := ListenUDPGroup("127.0.0.1:0", 4, UDPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer socks[0].Close()
	if len(socks) != 1 {
		t.Fatalf("ListenUDPGroup returned %d sockets without SO_REUSEPORT, want 1", len(socks))
	}
}

// TestReleaseDropAccounting pins the pool bugfix: foreign buffers are
// counted, pool buffers recycle silently, batch packets are no-ops.
func TestReleaseDropAccounting(t *testing.T) {
	s, prof := listenBatch(t, 4, false)
	dropped := prof.Counter(metrics.MetricUDPPoolDropped)
	cli, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.WriteTo([]byte("drop-test"), s.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	pkt, err := s.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	s.Release(pkt)
	if v := dropped.Value(); v != 0 {
		t.Fatalf("pool-originated release counted as dropped (%d)", v)
	}
	// A foreign full-size buffer cannot re-enter the pool: counted.
	s.Release(Packet{Data: make([]byte, MaxDatagram)})
	if v := dropped.Value(); v != 1 {
		t.Errorf("foreign buffer drop count = %d, want 1", v)
	}
	// Batch-reader packets carry no pool buffer: releasing them is a no-op.
	s.Release(Packet{Data: []byte("short")})
	if v := dropped.Value(); v != 1 {
		t.Errorf("non-pool-size release counted (%d), want 1", v)
	}
}

// TestStreamConnInstrumentedWriters re-runs the concurrent-writer integrity
// test with the write counters wired: framing must survive, every message
// must arrive, and each message must cost exactly one write call.
func TestStreamConnInstrumentedWriters(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const writers, per = 8, 100
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
	prof := metrics.NewProfile()
	calls := prof.Counter(metrics.MetricTCPWriteCalls)
	msgs := prof.Counter(metrics.MetricTCPWriteMsgs)
	cli.InstrumentWrites(calls, msgs)
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
	if got := msgs.Value(); got != writers*per {
		t.Errorf("write_msgs = %d, want %d", got, writers*per)
	}
	if got := calls.Value(); got != msgs.Value() {
		t.Errorf("write_syscalls = %d for %d messages, want one each", got, msgs.Value())
	}
	cli.Close()
}

func TestUDPSocketBufferSizes(t *testing.T) {
	const req = 1 << 20
	s, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{RcvBuf: req, SndBuf: req})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rcv, snd := s.BufferSizes()
	if rcv == 0 && snd == 0 {
		t.Skip("effective buffer sizes unreadable on this platform")
	}
	// Linux doubles the requested value; any kernel may clamp. The tuned
	// socket must at least not report less than an untuned default.
	if rcv < 4096 || snd < 4096 {
		t.Errorf("implausible effective buffers rcv=%d snd=%d", rcv, snd)
	}
}
