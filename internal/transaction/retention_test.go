package transaction

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"gosip/internal/sipmsg"
)

// The retention tests hold the table to the per-state rule in DESIGN.md §5:
// what a transaction holds follows its state. They drive the table the way
// the proxy does over UDP — pooled request in, built copy out, pooled
// response in, built copy upstream — with wire text of the benchmark's size.

const retentionSDP = "v=0\r\no=- 0 0 IN IP4 127.0.0.1\r\ns=-\r\nc=IN IP4 127.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\n"

func retentionInvite(i int) []byte {
	return []byte(fmt.Sprintf("INVITE sip:user1@test.dom SIP/2.0\r\n"+
		"Via: SIP/2.0/UDP 127.0.0.1:5071;branch=z9hG4bKretn%di\r\n"+
		"Max-Forwards: 70\r\n"+
		"From: <sip:user0@test.dom>;tag=retn%d\r\n"+
		"To: <sip:user1@test.dom>\r\n"+
		"Call-ID: retn%d@bench\r\n"+
		"CSeq: 1 INVITE\r\n"+
		"Contact: <sip:user0@127.0.0.1:5071>\r\n"+
		"Content-Type: application/sdp\r\n"+
		"Content-Length: %d\r\n\r\n%s", i, i, i, len(retentionSDP), retentionSDP))
}

func retentionFinal(i, code int) []byte {
	return []byte(fmt.Sprintf("SIP/2.0 %d %s\r\n"+
		"Via: SIP/2.0/UDP 127.0.0.1:5060;branch=z9hG4bKdown%d\r\n"+
		"Via: SIP/2.0/UDP 127.0.0.1:5071;branch=z9hG4bKretn%di\r\n"+
		"From: <sip:user0@test.dom>;tag=retn%d\r\n"+
		"To: <sip:user1@test.dom>;tag=callee-user1\r\n"+
		"Call-ID: retn%d@bench\r\n"+
		"CSeq: 1 INVITE\r\n"+
		"Contact: <sip:user1@127.0.0.1:5072>\r\n"+
		"Content-Length: 0\r\n\r\n", code, sipmsg.StatusText(code), i, i, i, i))
}

// runToFinal takes transaction i from Create to its final the way
// forwardStateful and handleResponse do, releasing the receive loops'
// references, and returns it completed and lingering, with the built final
// that went upstream.
func runToFinal(t testing.TB, tb *Table, i, code int, h ClientTimerHandler) (*Transaction, *sipmsg.Message) {
	t.Helper()
	req, err := sipmsg.Parse(retentionInvite(i))
	if err != nil {
		t.Fatal(err)
	}
	upKey, err := req.TransactionKey()
	if err != nil {
		t.Fatal(err)
	}
	// The origin is boxed per transaction, as the UDP server boxes each
	// request's source address.
	tx, dup := tb.Create(upKey, req, any(netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), 5071)))
	if dup {
		t.Fatalf("transaction %d already exists", i)
	}
	tx.RecordUpstreamResponse(sipmsg.NewResponse(req, sipmsg.StatusTrying, ""))
	fwd := req.CloneWithHeadroom(1)
	fwd.Prepend("Via", fmt.Sprintf("SIP/2.0/UDP 127.0.0.1:5060;branch=z9hG4bKdown%d", i))
	tb.SetForwarded(tx, fmt.Sprintf("z9hG4bKdown%d|INVITE", i), fwd, "route")
	tb.ArmClientTimers(tx, h)
	req.Release() // the request's receive loop is done

	resp, err := sipmsg.Parse(retentionFinal(i, code))
	if err != nil {
		t.Fatal(err)
	}
	up := resp.CloneWithoutTopVia()
	if got := tb.OnClientResponse(tx, up); got != RespPassFinal && got != RespPassFinalAck {
		t.Fatalf("final classified %v", got)
	}
	if !tb.SendFinal(tx, up, nil) {
		t.Fatal("SendFinal refused the first final")
	}
	resp.Release() // the response's receive loop is done
	return tx, up
}

type nopTimers struct{}

func (nopTimers) RetransmitRequest(*Transaction, *sipmsg.Message) {}
func (nopTimers) RequestTimedOut(*Transaction)                    {}

// TestRetainedPerState walks one transaction of each kind through its
// states and checks what it holds in each, message by message.
func TestRetainedPerState(t *testing.T) {
	tb, timers := newTestTable(Config{})
	idle := sipmsg.PoolOutstanding()

	ok, okFinal := runToFinal(t, tb, 1, sipmsg.StatusOK, nopTimers{})
	if ok.Request() != nil || ok.Forwarded() != nil || ok.DownRoute() != nil {
		t.Error("a transaction answered 2xx still holds its request legs or its route")
	}
	want := rendered(okFinal)
	if last := ok.LastResponse(); rendered(last) != want {
		t.Errorf("a transaction answered 2xx lost the response it must replay:\n%s\nwant\n%s", rendered(last), want)
	}
	if got := sipmsg.PoolOutstanding(); got != idle {
		t.Errorf("%d pooled messages outstanding with the 2xx transaction lingering, idle was %d", got, idle)
	}
	if replay := tb.OnRetransmit(ok); rendered(replay) != want {
		t.Errorf("retransmitted INVITE is not answered with the 200 during linger:\n%s\nwant\n%s", rendered(replay), want)
	}

	busy, busyFinal := runToFinal(t, tb, 2, sipmsg.StatusBusyHere, nopTimers{})
	if last := busy.LastResponse(); last != busyFinal {
		t.Error("a non-2xx INVITE final must stay a message until Timer D: Timer G replays it")
	}
	req, fwd := busy.Request(), busy.Forwarded()
	if req == nil || fwd == nil || busy.DownRoute() == nil {
		t.Fatal("a non-2xx INVITE final must keep both legs and the route until Timer D: the ACK is built from them")
	}
	if got := sipmsg.PoolOutstanding(); got != idle+1 {
		t.Errorf("%d pooled messages outstanding, want the one request held for Timer D (idle %d)", got, idle)
	}
	req.Release()
	fwd.Release()

	// Linger (2 s) ends the first, Timer D (32 s) the second.
	timers.CheckNow(time.Now().Add(time.Minute))
	for _, tx := range []*Transaction{ok, busy} {
		if tx.State() != StateTerminated {
			t.Fatalf("state %v after the removal timer", tx.State())
		}
		if tx.Request() != nil || tx.Forwarded() != nil || tx.LastResponse() != nil || tx.DownRoute() != nil {
			t.Error("a terminated transaction still holds a message or its route")
		}
	}
	if n := tb.Len(); n != 0 {
		t.Errorf("%d index entries left after termination", n)
	}
	if live := int64(timers.Len()) - timers.CancelledResident(); live != 0 {
		t.Errorf("%d live timers left after termination", live)
	}
	if got := sipmsg.PoolOutstanding(); got != idle {
		t.Errorf("%d pooled messages outstanding after termination, idle was %d", got, idle)
	}

	// A forward that loses the race with termination must not bring the
	// transaction back into the index.
	tb.SetForwarded(ok, "z9hG4bKlate|INVITE", sipmsg.NewRequest(sipmsg.RequestSpec{Method: sipmsg.INVITE}), "route")
	if tb.Len() != 0 || ok.Forwarded() != nil {
		t.Error("SetForwarded re-indexed a terminated transaction")
	}
}

// TestLingeringTransactionBytes is the bound the benchmark's server_rss_mb
// rests on: 10 000 transactions completed with a 2xx and waiting out their
// linger window cost at most 1.1 KB of heap each — the transaction, its two
// keys and index entries, the removal timer, the final's wire image, the
// source address, and the hollow corpses of Timer A and Timer B — then the
// Timer B corpse alone once terminated, and nothing once that has ripened.
// The final as a message (struct, header slice, the parsed response's head
// it aliases) cost about 500 B more. Each stage is priced against the heap at the end,
// when the batch has left nothing behind: the index maps and the timer heap
// keep their grown arrays, and that is not a transaction's cost.
func TestLingeringTransactionBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	const n = 10000
	tb, timers := newTestTable(Config{})
	heap := func() float64 {
		runtime.GC()
		runtime.GC() // finalizers and pool victims of the first cycle
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	idle := sipmsg.PoolOutstanding()

	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i], _ = runToFinal(t, tb, i, sipmsg.StatusOK, nopTimers{})
	}
	if tb.Len() != 2*n {
		t.Fatalf("%d index entries, want %d", tb.Len(), 2*n)
	}
	if got := sipmsg.PoolOutstanding(); got != idle {
		t.Errorf("%d pooled messages outstanding with %d transactions lingering, idle was %d", got, n, idle)
	}
	lingering := heap()

	// Past Linger, short of Timer B: the transactions terminate. Stale
	// holders of a terminated transaction pin the struct and nothing behind
	// it, so the slice goes first.
	now := time.Now()
	timers.CheckNow(now.Add(10 * time.Second))
	if tb.Len() != 0 {
		t.Fatalf("%d index entries after termination", tb.Len())
	}
	for i := range txs {
		txs[i] = nil
	}
	terminated := heap()

	timers.CheckNow(now.Add(time.Minute))
	if timers.Len() != 0 {
		t.Fatalf("%d timers resident after every deadline passed", timers.Len())
	}
	if got := sipmsg.PoolOutstanding(); got != idle {
		t.Errorf("%d pooled messages outstanding after termination, idle was %d", got, idle)
	}
	gone := heap()

	perLingering, perTerminated := (lingering-gone)/n, (terminated-gone)/n
	t.Logf("%.0f B per lingering transaction, %.0f B per terminated one until Timer B's deadline", perLingering, perTerminated)
	if perLingering > 1100 {
		t.Errorf("a lingering transaction costs %.0f B, want at most 1100", perLingering)
	}
	if perTerminated > 160 { // a 96 B timer, its heap slot, and the index maps' tombstones
		t.Errorf("a terminated transaction costs %.0f B, want about one hollow timer", perTerminated)
	}
}

// TestTransactionSize pins the struct in its 176 B size class: the final's
// image replaced no field, so the fields around it had to shrink for it.
func TestTransactionSize(t *testing.T) {
	if got := unsafe.Sizeof(Transaction{}); got > 176 {
		t.Errorf("Transaction is %d B, want at most 176", got)
	}
}

// TestRelayedFinalCollectableWhileLingering is the retention property of the
// lingering state: once a 2xx went upstream, the transaction keeps its wire
// image and not the message, so the built final the proxy relayed is
// garbage the moment the sender is done with it, long before Linger ends.
func TestRelayedFinalCollectableWhileLingering(t *testing.T) {
	tb, _ := newTestTable(Config{})
	collected := make(chan struct{})
	tx := func() *Transaction {
		tx, final := runToFinal(t, tb, 1, sipmsg.StatusOK, nopTimers{})
		runtime.SetFinalizer(final, func(*sipmsg.Message) { close(collected) })
		return tx
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if tx.State() != StateCompleted {
				t.Fatalf("state %v, want the transaction still lingering", tx.State())
			}
			if last := tx.LastResponse(); last == nil || last.StatusCode != sipmsg.StatusOK {
				t.Errorf("the lingering transaction lost its 200: %v", last)
			}
			return
		case <-deadline:
			t.Fatal("the relayed final is still reachable from its lingering transaction")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestAccessorsNeverHandOutRecycledMessage is the accessor contract under
// fire: while SendFinal makes the transaction give its legs back, readers on
// other goroutines keep asking for them. Each gets the message with a
// reference of its own — still this call's text however long it holds it —
// or nil; never a message the pool has since handed to another parse (the
// main goroutine churns the pool with another call's text the moment the
// final is through). Both legs are pooled here, as in bench/layers' probe.
func TestAccessorsNeverHandOutRecycledMessage(t *testing.T) {
	tb, timers := newTestTable(Config{})
	idle := sipmsg.PoolOutstanding()
	poison := retentionInvite(999999)
	for i := 0; i < 2000; i++ {
		req, err := sipmsg.Parse(retentionInvite(i))
		if err != nil {
			t.Fatal(err)
		}
		fwd, _ := sipmsg.Parse(retentionInvite(i))
		want := req.CallID()
		upKey, _ := req.TransactionKey()
		tx, _ := tb.Create(upKey, req, nil)
		tb.SetForwarded(tx, fmt.Sprintf("z9hG4bKdown%d|INVITE", i), fwd, "route")
		tx.MarkForwardSent()
		final := sipmsg.NewResponse(req, sipmsg.StatusOK, "callee")
		req.Release()
		fwd.Release()

		var readers sync.WaitGroup
		for _, get := range []func() *sipmsg.Message{
			tx.Request,
			tx.Forwarded,
			func() *sipmsg.Message { m, _, _ := tx.RequestCancel(); return m },
		} {
			readers.Add(1)
			go func(get func() *sipmsg.Message) {
				defer readers.Done()
				for {
					m := get()
					if m == nil {
						return // given back: the final is through
					}
					runtime.Gosched() // hold it across the release
					if got := m.CallID(); got != want {
						t.Errorf("iteration %d: accessor handed out a message of call %q, want %q", i, got, want)
					}
					m.Release()
				}
			}(get)
		}
		if !tb.SendFinal(tx, final, nil) {
			t.Fatal("SendFinal refused the first final")
		}
		for j := 0; j < 4; j++ { // whatever went back to the pool is someone else's now
			if m, err := sipmsg.Parse(poison); err == nil {
				m.Release()
			}
		}
		readers.Wait()
	}
	timers.CheckNow(time.Now().Add(time.Minute))
	if got := sipmsg.PoolOutstanding(); got != idle {
		t.Errorf("%d pooled messages outstanding at the end, idle was %d", got, idle)
	}
}
