package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"gosip/internal/metrics"
)

// The batch benchmarks pair a socket with itself over loopback: each
// iteration moves one datagram out and back in, so ns/op is per datagram
// regardless of the batch size, and the profile counters turn into a
// syscalls/op metric benchstat can track alongside it.

func benchSyscallsPerOp(b *testing.B, prof *metrics.Profile, ops int) {
	b.Helper()
	sys := prof.Counter(metrics.MetricUDPRecvSyscalls).Value() +
		prof.Counter(metrics.MetricUDPSendSyscalls).Value()
	b.ReportMetric(float64(sys)/float64(ops), "syscalls/op")
	if dropped := prof.Counter(metrics.MetricUDPPoolDropped).Value(); dropped != 0 {
		b.Fatalf("pool dropped %d buffers", dropped)
	}
}

func benchUDPRoundtrip(b *testing.B, batch int) {
	prof := metrics.NewProfile()
	sock, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{
		BatchSize: batch,
		RcvBuf:    1 << 20,
		Profile:   prof,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sock.Close()
	dst := sock.LocalAddr()

	wire := testMsg(1).Serialize()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()

	if batch <= 1 {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sock.WriteTo(wire, dst); err != nil {
				b.Fatal(err)
			}
			pkt, err := sock.ReadPacket()
			if err != nil {
				b.Fatal(err)
			}
			sock.Release(pkt)
		}
		b.StopTimer()
		benchSyscallsPerOp(b, prof, b.N)
		return
	}

	bw := sock.NewBatchWriter(batch)
	br := sock.NewBatchReader(batch)
	dgs := make([]Datagram, batch)
	for i := range dgs {
		dgs[i] = Datagram{Data: wire, Dst: dst}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		k := batch
		if rem := b.N - i; rem < k {
			k = rem
		}
		if err := sock.WriteBatch(bw, dgs[:k]); err != nil {
			b.Fatal(err)
		}
		for got := 0; got < k; {
			n, err := sock.ReadBatch(br)
			if err != nil {
				b.Fatal(err)
			}
			got += n
		}
	}
	b.StopTimer()
	benchSyscallsPerOp(b, prof, b.N)
}

func BenchmarkUDPRoundtrip(b *testing.B)        { benchUDPRoundtrip(b, 1) }
func BenchmarkUDPRoundtripBatch8(b *testing.B)  { benchUDPRoundtrip(b, 8) }
func BenchmarkUDPRoundtripBatch32(b *testing.B) { benchUDPRoundtrip(b, 32) }

// benchStreamWrite measures contended sends on one StreamConn: several
// goroutines (more than GOMAXPROCS, so they genuinely queue on the write
// path) push a response-sized payload each iteration while a peer drains.
func BenchmarkStreamWriteContended(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- nc
	}()
	client, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	peer := <-accepted
	defer peer.Close()
	go io.Copy(io.Discard, peer)
	benchContendedWrites(b, client)
}

// benchContendedWrites wraps nc in an instrumented StreamConn and has eight
// parallel writers per GOMAXPROCS push a response-sized payload through it,
// reporting write calls per message as syscalls/op.
func benchContendedWrites(b *testing.B, nc net.Conn) {
	prof := metrics.NewProfile()
	sc := NewStreamConn(nc)
	sc.InstrumentWrites(prof.Counter(metrics.MetricTCPWriteCalls), prof.Counter(metrics.MetricTCPWriteMsgs))

	wire := testMsg(1).Serialize()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := sc.WriteRaw(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	calls := prof.Counter(metrics.MetricTCPWriteCalls).Value()
	msgs := prof.Counter(metrics.MetricTCPWriteMsgs).Value()
	b.ReportMetric(float64(calls)/float64(msgs), "syscalls/op")
}

// BenchmarkTLSStreamWriteContended is BenchmarkStreamWriteContended with
// the TLS layer in place: the same contended-send shape, measured above
// crypto/tls, so the syscalls/op column lines up with the plain-TCP one.
func BenchmarkTLSStreamWriteContended(b *testing.B) {
	srvCtx, cliCtx := newTLSPair(b, TLSOptions{}, TLSOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		tc := srvCtx.Server(nc)
		io.Copy(io.Discard, tc)
		tc.Close()
	}()
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	client := cliCtx.Client(nc, ln.Addr().String())
	if err := client.Handshake(); err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	benchContendedWrites(b, client)
}

// BenchmarkEgressEnqueue is the proxy's batched send path: enqueue into
// the worker egress and drain, as one receive batch's worth of responses
// would. The reader side drains the socket so the benchmark measures the
// sender, not a filling rcvbuf.
func BenchmarkEgressEnqueue(b *testing.B) {
	prof := metrics.NewProfile()
	sock, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{
		BatchSize: 32, RcvBuf: 1 << 20, Profile: prof,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sock.Close()
	sink, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{RcvBuf: 1 << 22})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			pkt, err := sink.ReadPacket()
			if err != nil {
				return
			}
			sink.Release(pkt)
		}
	}()

	eg := NewEgress(sock, 32, DefaultEgressLinger, prof)
	defer eg.Close()
	wire := testMsg(1).Serialize()
	dst := sink.LocalAddr()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eg.Enqueue(wire, dst); err != nil {
			b.Fatal(err)
		}
		if i%8 == 7 {
			eg.Drain()
		}
	}
	eg.Drain()
	b.StopTimer()
	b.ReportMetric(float64(prof.Counter(metrics.MetricUDPSendSyscalls).Value())/float64(b.N), "syscalls/op")
}
