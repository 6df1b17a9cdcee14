//go:build !unix

package sipmsg

import (
	"io"
	"syscall"
)

// rawConnOf returns nil: without read(2) every source is read with Read.
func rawConnOf(io.Reader) syscall.RawConn { return nil }

func (r *Reader) rawRead(uintptr) bool { panic("sipmsg: raw read without a descriptor") }
