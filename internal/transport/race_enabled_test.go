//go:build race

package transport

// raceEnabled reports whether the race detector is compiled in. The alloc
// regression tests skip under -race: the detector's instrumentation adds
// allocations of its own, making allocation counts meaningless.
const raceEnabled = true
