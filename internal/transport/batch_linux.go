//go:build linux && (amd64 || arm64)

// The recvmmsg/sendmmsg fast path, built on raw syscalls so the module
// stays dependency-free (no golang.org/x/sys). Both syscalls take an array
// of mmsghdr — a msghdr plus the per-message byte count the kernel fills —
// and move up to vlen datagrams per kernel crossing. The struct layout and
// syscall numbers are identical on linux/amd64 and linux/arm64 (both are
// 64-bit little-endian with 8-byte msghdr fields), which the build tag
// pins; every other platform uses the generic single-packet path.
//
// The fd is used under syscall.RawConn's Read/Write closures with
// MSG_DONTWAIT: returning false on EAGAIN parks the goroutine on the
// netpoller, so deadlines and Close behave exactly as they do for the
// standard library's own I/O.

package transport

import (
	"fmt"
	"net/netip"
	"os"
	"syscall"
	"unsafe"
)

const mmsgAvailable = true

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

type batchReaderOS struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
}

func (o *batchReaderOS) init(br *BatchReader) {
	n := len(br.bufs)
	o.hdrs = make([]mmsghdr, n)
	o.iovs = make([]syscall.Iovec, n)
	o.names = make([]syscall.RawSockaddrInet6, n)
	for i := range o.hdrs {
		o.iovs[i].Base = &br.bufs[i][0]
		o.iovs[i].Len = MaxDatagram
		o.hdrs[i].hdr.Iov = &o.iovs[i]
		o.hdrs[i].hdr.Iovlen = 1
		o.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&o.names[i]))
		o.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(o.names[i]))
	}
}

func (s *UDPSocket) readBatchMmsg(br *BatchReader) (int, error) {
	o := &br.sys
	var n int
	var serr error
	err := s.rc.Read(func(fd uintptr) bool {
		r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&o.hdrs[0])), uintptr(len(o.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		if errno == syscall.EAGAIN {
			return false // park on the netpoller until readable
		}
		if errno != 0 {
			serr = os.NewSyscallError("recvmmsg", errno)
			return true
		}
		n = int(r1)
		return true
	})
	if err != nil {
		return 0, err
	}
	if serr != nil {
		return 0, serr
	}
	for i := 0; i < n; i++ {
		br.pkts[i] = Packet{Data: br.bufs[i][:o.hdrs[i].n], Src: rawToAddrPort(&o.names[i])}
		// The kernel overwrote Namelen with the actual sockaddr size;
		// restore the buffer size for the next call.
		o.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(o.names[i]))
	}
	return n, nil
}

type batchWriterOS struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6
}

func (o *batchWriterOS) init(n int) {
	o.hdrs = make([]mmsghdr, n)
	o.iovs = make([]syscall.Iovec, n)
	o.names = make([]syscall.RawSockaddrInet6, n)
	for i := range o.hdrs {
		o.hdrs[i].hdr.Iov = &o.iovs[i]
		o.hdrs[i].hdr.Iovlen = 1
		o.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&o.names[i]))
	}
}

// writeBatchMmsg sends dgs (≤ the writer's capacity) and reports how many
// sendmmsg syscalls it took: normally one, more when the kernel accepts a
// batch partially and the loop continues from the first unsent message.
func (s *UDPSocket) writeBatchMmsg(bw *BatchWriter, dgs []Datagram) (int, error) {
	o := &bw.sys
	for i := range dgs {
		if len(dgs[i].Data) > 0 {
			o.iovs[i].Base = &dgs[i].Data[0]
		} else {
			o.iovs[i].Base = nil
		}
		o.iovs[i].Len = uint64(len(dgs[i].Data))
		nl, err := encodeAddrPort(&o.names[i], dgs[i].Dst, s.is6)
		if err != nil {
			return 0, err
		}
		o.hdrs[i].hdr.Namelen = nl
		o.hdrs[i].n = 0
	}
	off, calls := 0, 0
	var serr error
	err := s.rc.Write(func(fd uintptr) bool {
		for off < len(dgs) {
			r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&o.hdrs[off])), uintptr(len(dgs)-off),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EAGAIN {
				return false // socket buffer full: park until writable
			}
			if errno != 0 {
				serr = os.NewSyscallError("sendmmsg", errno)
				return true
			}
			calls++
			off += int(r1)
		}
		return true
	})
	if err != nil {
		return calls, err
	}
	return calls, serr
}

// rawToAddrPort decodes the kernel-filled source sockaddr into a value:
// nothing is allocated per datagram. The two-byte view of Port keeps the
// conversion endian-correct without bit tricks; an IPv4 peer of a
// dual-stack socket comes back as plain IPv4.
func rawToAddrPort(rsa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch rsa.Family {
	case syscall.AF_INET:
		r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		pb := (*[2]byte)(unsafe.Pointer(&r4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(r4.Addr), uint16(pb[0])<<8|uint16(pb[1]))
	case syscall.AF_INET6:
		pb := (*[2]byte)(unsafe.Pointer(&rsa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(rsa.Addr).Unmap(), uint16(pb[0])<<8|uint16(pb[1]))
	}
	return netip.AddrPort{} // not reachable for datagrams on an AF_INET/AF_INET6 socket
}

// encodeAddrPort fills the sockaddr slot for one destination. A v4 address
// sent through a v6-bound socket is encoded in mapped form, matching what
// the standard library's sendto path does.
func encodeAddrPort(dst *syscall.RawSockaddrInet6, a netip.AddrPort, force6 bool) (uint32, error) {
	if !a.IsValid() {
		return 0, fmt.Errorf("transport: datagram with no destination")
	}
	addr := a.Addr().Unmap()
	if addr.Is4() && !force6 {
		r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(dst))
		r4.Family = syscall.AF_INET
		pb := (*[2]byte)(unsafe.Pointer(&r4.Port))
		pb[0], pb[1] = byte(a.Port()>>8), byte(a.Port())
		r4.Addr = addr.As4()
		return syscall.SizeofSockaddrInet4, nil
	}
	dst.Family = syscall.AF_INET6
	pb := (*[2]byte)(unsafe.Pointer(&dst.Port))
	pb[0], pb[1] = byte(a.Port()>>8), byte(a.Port())
	dst.Addr = addr.As16()
	dst.Scope_id = 0
	return syscall.SizeofSockaddrInet6, nil
}
