package testutil

import (
	"net"
	"os"
	"testing"
)

// OpenFDs returns how many file descriptors the process holds, counted
// from /proc/self/fd (the listing's own descriptor included, every time).
// Raw descriptors — the ones unix-mode fd passing hands out — have no
// finalizer behind them, so a leak shows nowhere else. It skips the test
// where /proc is not mounted.
func OpenFDs(t testing.TB) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("counting descriptors needs /proc: %v", err)
	}
	return len(ents)
}

// CheckFDs fails the test unless the descriptor count is back at before.
func CheckFDs(t testing.TB, before int) {
	t.Helper()
	if after := OpenFDs(t); after != before {
		t.Errorf("descriptor leak: %d open, %d at the start", after, before)
	}
}

// LoopbackPair returns the two ends of a real TCP connection over loopback,
// accepted side first: unix-mode fd passing needs a socket with a
// descriptor, which net.Pipe does not have. The caller closes both.
func LoopbackPair(t testing.TB) (accepted, dialed net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		dialed.Close()
		t.Fatal(err)
	}
	return accepted, dialed
}
