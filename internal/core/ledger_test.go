package core

import (
	"testing"
	"time"

	"gosip/internal/connmgr"
	"gosip/internal/ipc"
	"gosip/internal/metrics"
	"gosip/internal/transaction"
	"gosip/internal/transport"
)

// TestMessagePoolLedgerBalances runs calls end to end through each
// architecture and holds sipmsg's pool ledger to its idle value twice: with
// every transaction answered but still lingering — a completed transaction
// has already given its request back — and again once the linger window has
// passed and they have all terminated. Every parsed message the server (and
// the phones sharing the process) took from the pool has come back. A double
// release already panics; this is the other half, the reference that is
// never released. The stream read buffers are held to zero at both points:
// the lingering transactions' origins are connections whose readers have
// exited, and none of them still holds a buffer.
func TestMessagePoolLedgerBalances(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		kind transport.Kind
	}{
		{"udp", Config{Arch: ArchUDP, Workers: 4}, transport.UDP},
		{"tcp", Config{Arch: ArchTCP, Workers: 4, IPCMode: ipc.ModeChan, FDCache: true, ConnMgr: connmgr.KindPQueue}, transport.TCP},
		{"threaded", Config{Arch: ArchThreaded, Workers: 4}, transport.TCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The linger window ends when the test says so.
			tc.cfg.Txn = transaction.Config{Linger: time.Hour}
			srv := startServer(t, tc.cfg)
			gauge := func() float64 { return srv.Profile().Snapshot().Gauges[metrics.GaugeMsgPoolOutstanding] }
			idle := gauge()
			loans := func() float64 { return srv.Profile().Snapshot().Gauges[metrics.GaugeReadBufsOnLoan] }

			res := runLoad(t, srv, tc.kind, 4, 5, 0)
			assertClean(t, res, 20)
			if created := srv.Profile().Counter(metrics.MetricTxnCreated).Value(); created < 40 {
				t.Fatalf("only %d transactions created: the stateful path did not run", created)
			}

			// The phones are gone and every transaction has its final: what
			// is still out can only be a message in a worker's hands.
			deadline := time.Now().Add(5 * time.Second)
			for (gauge() != idle || loans() != 0) && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if got := gauge(); got != idle {
				t.Fatalf("%s = %v with every call finished, idle was %v: a parsed message was never released",
					metrics.GaugeMsgPoolOutstanding, got, idle)
			}
			if got := loans(); got != 0 {
				t.Fatalf("%s = %v with every call finished: a reader kept its buffer", metrics.GaugeReadBufsOnLoan, got)
			}
			timers := srv.Timers()
			if live := int64(timers.Len()) - timers.CancelledResident(); live < 40 {
				t.Fatalf("%d live timers: the transactions are not lingering, the check above proved nothing", live)
			}

			// Past the linger window the transactions terminate; releasing
			// anything twice there panics, and the ledger must not move.
			timers.CheckNow(time.Now().Add(2 * time.Hour))
			if got := gauge(); got != idle {
				t.Fatalf("%s = %v after the linger window, idle was %v", metrics.GaugeMsgPoolOutstanding, got, idle)
			}
			if got := loans(); got != 0 {
				t.Fatalf("%s = %v after the linger window", metrics.GaugeReadBufsOnLoan, got)
			}
		})
	}
}
