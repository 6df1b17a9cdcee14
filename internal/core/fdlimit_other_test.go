//go:build !unix

package core

// fdLimit has no descriptor-limit probe on this platform.
func fdLimit() (uint64, bool) { return 0, false }
