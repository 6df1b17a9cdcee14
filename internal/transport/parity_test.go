package transport

import (
	"crypto/sha256"
	"fmt"
	"net"
	"testing"
	"time"

	"gosip/internal/metrics"
)

// parityCorpus builds the payload set the parity tests push through both
// UDP paths: pathological sizes (1 byte, just under a 4 KiB page, more than
// two pages), full byte coverage, and SIP-shaped text with awkward
// whitespace in the torture-corpus spirit.
func parityCorpus() [][]byte {
	all := make([]byte, 1024)
	for i := range all {
		all[i] = byte(i)
	}
	sip := []byte("INVITE sip:bob@b.example SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP a.example;branch=z9hG4bK1\r\n" +
		"From: \"Watson, come here; now\" <sip:a@a.example>;tag=x\r\n" +
		"To: <sip:bob@b.example>\r\n" +
		"Call-ID:    spaced-out   \r\n" +
		"CSeq: 1 INVITE\r\n\r\n")
	big := make([]byte, 9000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	boundary := make([]byte, 4096-44)
	for i := range boundary {
		boundary[i] = byte(i * 13)
	}
	return [][]byte{
		[]byte("x"),
		sip,
		all,
		boundary,
		big,
	}
}

// udpPaths names the two UDP paths a parity run covers: "portable" is the
// one-datagram-per-syscall net.UDPConn path (ForceGeneric), "batch" the
// recvmmsg/sendmmsg path where the platform has it.
var udpPaths = []struct {
	name         string
	forceGeneric bool
}{
	{"portable", true},
	{"batch", false},
}

func openParitySocket(t *testing.T, forceGeneric bool) *UDPSocket {
	t.Helper()
	s, err := ListenUDPOptions("127.0.0.1:0", UDPOptions{
		BatchSize:    8,
		ForceGeneric: forceGeneric,
		Profile:      metrics.NewProfile(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.MmsgActive() != (mmsgAvailable && !forceGeneric) {
		t.Fatalf("MmsgActive = %v with ForceGeneric %v", s.MmsgActive(), forceGeneric)
	}
	return s
}

// TestEngineParityUDPReceive pins byte-identical ingress across both UDP
// paths: the same datagrams, delivered with the same bytes, for both
// ReadBatch and ReadPacket consumers.
func TestEngineParityUDPReceive(t *testing.T) {
	corpus := parityCorpus()
	type result map[string]int
	digest := func(received [][]byte) result {
		r := make(result)
		for _, b := range received {
			r[fmt.Sprintf("%x", sha256.Sum256(b))]++
		}
		return r
	}
	want := digest(corpus)

	for _, path := range udpPaths {
		for _, mode := range []string{"batch", "packet"} {
			t.Run(path.name+"/"+mode, func(t *testing.T) {
				s := openParitySocket(t, path.forceGeneric)
				peer, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(s.LocalAddr()))
				if err != nil {
					t.Fatal(err)
				}
				defer peer.Close()
				for _, p := range corpus {
					if _, err := peer.Write(p); err != nil {
						t.Fatal(err)
					}
				}
				var got [][]byte
				deadline := time.Now().Add(2 * time.Second)
				br := s.NewBatchReader(8)
				for len(got) < len(corpus) {
					if err := s.SetReadDeadline(deadline); err != nil {
						t.Fatal(err)
					}
					if mode == "batch" {
						n, err := s.ReadBatch(br)
						if err != nil {
							t.Fatalf("after %d: %v", len(got), err)
						}
						for _, p := range br.Packets()[:n] {
							got = append(got, append([]byte(nil), p.Data...))
						}
					} else {
						p, err := s.ReadPacket()
						if err != nil {
							t.Fatalf("after %d: %v", len(got), err)
						}
						got = append(got, append([]byte(nil), p.Data...))
						s.Release(p)
					}
				}
				if d := digest(got); fmt.Sprint(d) != fmt.Sprint(want) {
					t.Errorf("delivered multiset differs:\n got %v\nwant %v", d, want)
				}
			})
		}
	}
}

// TestEngineParityUDPSend pins byte-identical egress: WriteBatch through
// either UDP path delivers the same datagrams to the peer.
func TestEngineParityUDPSend(t *testing.T) {
	corpus := parityCorpus()
	for _, path := range udpPaths {
		t.Run(path.name, func(t *testing.T) {
			s := openParitySocket(t, path.forceGeneric)
			peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			dst := peer.LocalAddr().(*net.UDPAddr).AddrPort()
			var dgs []Datagram
			for _, p := range corpus {
				dgs = append(dgs, Datagram{Data: p, Dst: dst})
			}
			bw := s.NewBatchWriter(8)
			if err := s.WriteBatch(bw, dgs); err != nil {
				t.Fatal(err)
			}
			want := make(map[string]int)
			for _, p := range corpus {
				want[string(p)]++
			}
			buf := make([]byte, MaxDatagram)
			peer.SetReadDeadline(time.Now().Add(2 * time.Second))
			for i := 0; i < len(corpus); i++ {
				n, _, err := peer.ReadFromUDP(buf)
				if err != nil {
					t.Fatalf("after %d datagrams: %v", i, err)
				}
				key := string(buf[:n])
				if want[key] == 0 {
					t.Fatalf("unexpected datagram (%d bytes)", n)
				}
				want[key]--
			}
		})
	}
}
