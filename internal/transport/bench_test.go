package transport

import (
	"io"
	"net"
	"testing"
	"time"

	"gosip/internal/metrics"
)

// BenchmarkUDPRoundtrip pairs a socket with itself over loopback: each
// iteration moves one datagram out and back in, and the profile counters
// turn into a syscalls/op metric benchstat can track alongside ns/op.
func BenchmarkUDPRoundtrip(b *testing.B) {
	prof := metrics.NewProfile()
	sock, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{Profile: prof})
	if err != nil {
		b.Fatal(err)
	}
	defer sock.Close()
	dst := sock.LocalAddr()

	wire := testMsg(1).Serialize()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
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
	sys := prof.Counter(metrics.MetricUDPRecvSyscalls).Value() +
		prof.Counter(metrics.MetricUDPSendSyscalls).Value()
	b.ReportMetric(float64(sys)/float64(b.N), "syscalls/op")
	if dropped := prof.Counter(metrics.MetricUDPPoolDropped).Value(); dropped != 0 {
		b.Fatalf("pool dropped %d buffers", dropped)
	}
}

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
