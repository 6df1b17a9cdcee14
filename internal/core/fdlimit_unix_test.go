//go:build unix

package core

import "syscall"

// fdLimit reports the process's soft RLIMIT_NOFILE, and false where it
// cannot be read.
func fdLimit() (uint64, bool) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 0, false
	}
	return uint64(lim.Cur), true
}
