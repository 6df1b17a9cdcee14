//go:build !linux

package ipc

import (
	"errors"
	"time"

	"gosip/internal/conn"
)

// unixPair is unavailable off Linux; NewFabric(ModeUnix, ...) fails and
// callers fall back to ModeChan, so no handle ever carries a raw descriptor.
type unixPair struct{}

var errNoFDPass = errors.New("ipc: SCM_RIGHTS fd passing requires linux; use ModeChan")

func newUnixPair() (*unixPair, error)               { return nil, errNoFDPass }
func (p *unixPair) sendConnFD(*conn.TCPConn) error  { return errNoFDPass }
func (p *unixPair) sendErr()                        {}
func (p *unixPair) recvFD(time.Time) (int, error)   { return -1, errNoFDPass }
func (p *unixPair) close()                          {}
func closeFD(int) error                             { return errNoFDPass }
func (f *Fabric) writeFD(h *Handle, _ []byte) error { return errNoFDPass }
