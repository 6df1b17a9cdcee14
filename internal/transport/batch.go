package transport

import (
	"net/netip"
	"time"
)

// Datagram is one outbound UDP message for the batched send path.
type Datagram struct {
	Data []byte
	Dst  netip.AddrPort
}

// BatchReader holds the reusable per-caller state of the batched receive
// path: packet slots, their buffers, and (on Linux) the mmsghdr/iovec/
// sockaddr arrays recvmmsg fills. A BatchReader belongs to one goroutine;
// several goroutines batch-reading one socket each use their own.
//
// The reader owns its buffers: every ReadBatch call reuses them, so a
// packet's Data is valid only until the caller's next ReadBatch on the
// same reader. The proxy's receive path copies datagram bytes into the
// parsed message before the next read, so no pool traffic is needed at
// all — the batched path's buffer management is allocation-free after
// construction.
type BatchReader struct {
	pkts []Packet
	bufs [][]byte
	sys  batchReaderOS
}

// NewBatchReader sizes a reader for up to n datagrams per call, clamped
// to [1, MaxBatch].
func (s *UDPSocket) NewBatchReader(n int) *BatchReader {
	if n < 1 {
		n = 1
	}
	if n > MaxBatch {
		n = MaxBatch
	}
	br := &BatchReader{
		pkts: make([]Packet, n),
		bufs: make([][]byte, n),
	}
	for i := range br.bufs {
		br.bufs[i] = make([]byte, MaxDatagram)
	}
	br.sys.init(br)
	return br
}

// Packets exposes the reader's packet slots; the first n returned by the
// last ReadBatch are valid.
func (br *BatchReader) Packets() []Packet { return br.pkts }

// ReadBatch blocks until at least one datagram is available and returns
// how many arrived (up to the reader's capacity). On Linux this is one
// recvmmsg syscall draining the socket queue; elsewhere it degrades to the
// single-packet read, returning 1. Deadlines set via SetReadDeadline and
// Close both unblock it, exactly like ReadPacket.
func (s *UDPSocket) ReadBatch(br *BatchReader) (int, error) {
	if s.mmsg {
		n, err := s.readBatchMmsg(br)
		if err != nil {
			return 0, err
		}
		s.recvSyscalls.Inc()
		s.recvMsgs.Add(int64(n))
		s.recvOcc.Record(time.Duration(n))
		return n, nil
	}
	n, src, err := s.conn.ReadFromUDPAddrPort(br.bufs[0])
	if err != nil {
		return 0, err
	}
	s.recvSyscalls.Inc()
	s.recvMsgs.Inc()
	s.recvOcc.Record(1)
	br.pkts[0] = Packet{Data: br.bufs[0][:n], Src: unmap(src)}
	return 1, nil
}

// BatchWriter holds the reusable per-caller state of the batched send
// path. Like BatchReader it belongs to one goroutine (or one lock holder:
// the Egress serializes its flushes).
type BatchWriter struct {
	cap int
	sys batchWriterOS
}

// NewBatchWriter sizes a writer for up to n datagrams per syscall,
// clamped to [1, MaxBatch].
func (s *UDPSocket) NewBatchWriter(n int) *BatchWriter {
	if n < 1 {
		n = 1
	}
	if n > MaxBatch {
		n = MaxBatch
	}
	bw := &BatchWriter{cap: n}
	bw.sys.init(n)
	return bw
}

// WriteBatch sends every datagram in dgs. On Linux each chunk of up to the
// writer's capacity goes out in one sendmmsg syscall (short sends continue
// from where the kernel stopped); elsewhere it loops over single sends.
// The datagrams' Data is not retained past the call.
func (s *UDPSocket) WriteBatch(bw *BatchWriter, dgs []Datagram) error {
	for len(dgs) > 0 {
		chunk := dgs
		if len(chunk) > bw.cap {
			chunk = chunk[:bw.cap]
		}
		dgs = dgs[len(chunk):]
		if s.mmsg {
			calls, err := s.writeBatchMmsg(bw, chunk)
			s.sendSyscalls.Add(int64(calls))
			if err != nil {
				return err
			}
			s.sendMsgs.Add(int64(len(chunk)))
			s.sendOcc.Record(time.Duration(len(chunk)))
			continue
		}
		for _, dg := range chunk {
			if err := s.WriteTo(dg.Data, dg.Dst); err != nil {
				return err
			}
		}
	}
	return nil
}
