// Package testutil holds the leak assertions shared by tests and
// experiments: the goroutine-settle poll and the fd-handle ledger audit
// that previously lived as copies in the overload experiment, the fd-cache
// tests, and the IPC tests. Both are post-conditions on a closed server —
// everything it started must be gone, and every supervisor-issued fd
// handle must have been closed. fd.go counts the process's descriptors
// themselves, for the raw ones the ledger can only vouch for.
package testutil

import (
	"runtime"
	"testing"
	"time"

	"gosip/internal/metrics"
)

// settleTimeout bounds how long SettleGoroutines waits for background
// goroutines (readers unwinding from closed sockets, timer processes) to
// exit before reporting the residue as a leak.
const settleTimeout = 2 * time.Second

// SettleGoroutines polls until the goroutine count returns to the before
// baseline or the settle timeout lapses, and returns the remaining delta
// (never negative). Capture before with runtime.NumGoroutine() ahead of
// starting the system under test.
func SettleGoroutines(before int) int {
	delta := 0
	for deadline := time.Now().Add(settleTimeout); ; {
		delta = runtime.NumGoroutine() - before
		if delta <= 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if delta < 0 {
		delta = 0
	}
	return delta
}

// CheckGoroutines fails the test if goroutines started since the before
// baseline have not exited by the settle timeout.
func CheckGoroutines(t testing.TB, before int) {
	t.Helper()
	if delta := SettleGoroutines(before); delta > 0 {
		t.Errorf("%d goroutine(s) leaked", delta)
	}
}

// HandleLedger reads the profile's fd-handle ledger: how many fd handles
// the supervisor issued to workers and how many were closed.
func HandleLedger(prof *metrics.Profile) (issued, closed int64) {
	return prof.Counter(metrics.MetricIPCHandlesIssued).Value(),
		prof.Counter(metrics.MetricIPCHandlesClosed).Value()
}

// CheckHandleLedger fails the test unless the fd-handle ledger balances.
// Callers that must prove the test exercised the fd path at all should
// additionally assert issued > 0 via HandleLedger.
func CheckHandleLedger(t testing.TB, prof *metrics.Profile) {
	t.Helper()
	if issued, closed := HandleLedger(prof); issued != closed {
		t.Errorf("fd-handle leak: issued=%d closed=%d", issued, closed)
	}
}
