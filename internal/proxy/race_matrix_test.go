package proxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/userdb"
)

// This file is the CANCEL/ACK race matrix from the transaction-layer
// rework: every scenario runs at 1 shard (maximum lock contention — every
// transaction hits the same shard mutex) and 64 shards (the production
// shape), and the whole matrix is meant for `go test -race`.

func newRaceEnv(t *testing.T, shards int) *env {
	t.Helper()
	prof := metrics.NewProfile()
	loc := location.New()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(10, "test.dom")
	timers := timerlist.NewManual()
	txns := transaction.NewTable(transaction.Config{
		T1: 10 * time.Millisecond, TimerB: 50 * time.Millisecond,
		Linger: time.Hour, Shards: shards,
	}, timers, prof)
	e := NewEngine(Config{
		Stateful:     true,
		ViaTransport: "UDP", ViaHost: "127.0.0.1", ViaPort: 5060,
		Domain: "test.dom",
	}, loc, db, txns, prof)
	v := &env{engine: e, loc: loc, db: db, txns: txns, timers: timers, prof: prof}
	v.registerUser(1, "10.0.0.2", 5072)
	return v
}

func eachShardCount(t *testing.T, f func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 64} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { f(t, shards) })
	}
}

func deriveCancel(req *sipmsg.Message) *sipmsg.Message {
	cancel := req.Clone()
	cancel.Method = sipmsg.CANCEL
	cancel.Set("CSeq", "1 CANCEL")
	cancel.Body = nil
	return cancel
}

// TestRaceMatrixCancelVsForward drives the tentpole race: the CANCEL is
// handled concurrently with the INVITE forward. Whatever the interleaving,
// the invariants hold — a downstream CANCEL is only ever sent after the
// downstream INVITE, the CANCEL transaction gets exactly one final (200 or
// 481), and a 200-for-CANCEL implies the INVITE was answered 487.
func TestRaceMatrixCancelVsForward(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		for i := 0; i < 200; i++ {
			s := &fakeSender{}
			req := invite(0, 1)
			cancel := deriveCancel(req)
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); v.engine.Handle(s, req, "caller") }()
			go func() { defer wg.Done(); v.engine.Handle(s, cancel, "caller") }()
			wg.Wait()

			// Downstream ordering: CANCEL never precedes the INVITE it
			// cancels (MarkForwardSent hands the racing CANCEL to the
			// forwarding worker, which sends it after the INVITE).
			invIdx, cancelIdx := -1, -1
			for idx, sm := range s.addrMsgs() {
				switch sm.msg.Method {
				case sipmsg.INVITE:
					invIdx = idx
				case sipmsg.CANCEL:
					cancelIdx = idx
				}
			}
			if cancelIdx >= 0 && (invIdx < 0 || invIdx > cancelIdx) {
				t.Fatalf("iteration %d: downstream CANCEL at %d before INVITE at %d", i, cancelIdx, invIdx)
			}

			// Upstream: exactly one final for the CANCEL transaction, and a
			// 200 implies the INVITE was completed with 487.
			cancelFinals, got487 := 0, false
			cancel200 := false
			for _, sm := range s.originMsgs() {
				if sm.msg.StatusCode >= 200 {
					if _, method, _ := sm.msg.CSeq(); method == sipmsg.CANCEL {
						cancelFinals++
						cancel200 = sm.msg.StatusCode == sipmsg.StatusOK
					}
				}
				if sm.msg.StatusCode == sipmsg.StatusRequestTerminated {
					got487 = true
				}
			}
			if cancelFinals != 1 {
				t.Fatalf("iteration %d: CANCEL got %d finals", i, cancelFinals)
			}
			if cancel200 && !got487 {
				t.Fatalf("iteration %d: CANCEL answered 200 but INVITE never got its 487", i)
			}
			if cancel200 && invIdx >= 0 && cancelIdx < 0 {
				t.Fatalf("iteration %d: INVITE forwarded and cancelled upstream, but no downstream CANCEL", i)
			}
		}
	})
}

// TestRaceMatrixRetransmittedCancel: a CANCEL retransmission replays the
// CANCEL transaction's 200 and has no further downstream effect, even when
// the retransmissions arrive concurrently.
func TestRaceMatrixRetransmittedCancel(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		s := &fakeSender{}
		req := invite(0, 1)
		v.engine.Handle(s, req, "caller")
		v.engine.Handle(s, deriveCancel(req), "caller")
		downAfterFirst := 0
		for _, sm := range s.addrMsgs() {
			if sm.msg.Method == sipmsg.CANCEL {
				downAfterFirst++
			}
		}
		if downAfterFirst != 1 {
			t.Fatalf("setup: %d downstream CANCELs", downAfterFirst)
		}

		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); v.engine.Handle(s, deriveCancel(req), "caller") }()
		}
		wg.Wait()
		down := 0
		for _, sm := range s.addrMsgs() {
			if sm.msg.Method == sipmsg.CANCEL {
				down++
			}
		}
		if down != 1 {
			t.Errorf("retransmitted CANCELs propagated downstream (%d sends)", down)
		}
		replays := 0
		for _, sm := range s.originMsgs() {
			if _, method, _ := sm.msg.CSeq(); method == sipmsg.CANCEL && sm.msg.StatusCode == sipmsg.StatusOK {
				replays++
			}
		}
		if replays < 2 {
			t.Errorf("retransmitted CANCEL not answered (only %d 200s)", replays)
		}
	})
}

// TestRaceMatrixCancelAfterFinal: CANCELs arriving concurrently after the
// INVITE completed are answered 200 and change nothing.
func TestRaceMatrixCancelAfterFinal(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		s := &fakeSender{}
		req := invite(0, 1)
		v.engine.Handle(s, req, "caller")
		fwd := s.addrMsgs()[0].msg
		v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusBusyHere, "g"), nil)
		upBefore := len(s.originMsgs())

		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); v.engine.Handle(s, deriveCancel(req), "caller") }()
		}
		wg.Wait()
		for _, sm := range s.originMsgs()[upBefore:] {
			if _, method, _ := sm.msg.CSeq(); method != sipmsg.CANCEL {
				t.Fatalf("late CANCEL produced a non-CANCEL response: %d %s", sm.msg.StatusCode, method)
			}
		}
		for _, sm := range s.addrMsgs() {
			if sm.msg.Method == sipmsg.CANCEL {
				t.Fatal("late CANCEL propagated downstream")
			}
		}
	})
}

// TestRaceMatrixAckAbsorbVsForward: concurrent ACKs for an absorbed 487
// and for a forwarded 200 on two independent calls — the 487's ACKs all
// die at the proxy, the 200's ACKs all pass through.
func TestRaceMatrixAckAbsorbVsForward(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		s := &fakeSender{}

		// Call A: cancelled, completed upstream with 487.
		reqA := invite(0, 1)
		v.engine.Handle(s, reqA, "caller")
		v.engine.Handle(s, deriveCancel(reqA), "caller")

		// Call B: completed with 200.
		reqB := invite(0, 1)
		v.engine.Handle(s, reqB, "caller")
		var fwdB *sipmsg.Message
		for _, sm := range s.addrMsgs() {
			if sm.msg.Method == sipmsg.INVITE && sm.msg.CallID() == reqB.CallID() {
				fwdB = sm.msg
			}
		}
		if fwdB == nil {
			t.Fatal("setup: call B not forwarded")
		}
		v.engine.Handle(s, sipmsg.NewResponse(fwdB, sipmsg.StatusOK, "g"), nil)
		downBefore := len(s.addrMsgs())

		ackA := reqA.Clone() // non-2xx ACK: same branch as the INVITE
		ackA.Method = sipmsg.ACK
		ackA.Set("CSeq", "1 ACK")
		ackA.Body = nil
		var wg sync.WaitGroup
		const n = 8
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); v.engine.Handle(s, ackA.Clone(), "caller") }()
			wg.Add(1)
			go func() {
				defer wg.Done()
				ackB := invite(0, 1) // 2xx ACK: fresh branch, routed end to end
				ackB.Method = sipmsg.ACK
				ackB.Set("CSeq", "1 ACK")
				v.engine.Handle(s, ackB, "caller")
			}()
		}
		wg.Wait()

		forwardedAcks := 0
		for _, sm := range s.addrMsgs()[downBefore:] {
			if sm.msg.Method != sipmsg.ACK {
				t.Fatalf("unexpected downstream %s during ACK race", sm.msg.Method)
			}
			top, _ := sm.msg.TopVia()
			reqTop, _ := reqA.TopVia()
			if top.Branch() == reqTop.Branch() {
				t.Fatal("ACK for the 487 leaked downstream")
			}
			forwardedAcks++
		}
		if forwardedAcks != n {
			t.Errorf("forwarded %d 2xx ACKs, want %d", forwardedAcks, n)
		}
	})
}

// TestRaceMatrixLateFinalAfterTimerD: once Timer D removes the completed
// transaction, a straggling downstream final matches nothing and is
// dropped, not relayed upstream a second time.
func TestRaceMatrixLateFinalAfterTimerD(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		s := &fakeSender{}
		req := invite(0, 1)
		v.engine.Handle(s, req, "caller")
		var fwd *sipmsg.Message
		for _, sm := range s.addrMsgs() {
			if sm.msg.Method == sipmsg.INVITE {
				fwd = sm.msg
			}
		}
		v.engine.Handle(s, deriveCancel(req), "caller") // completes upstream with 487
		k, _ := req.TransactionKey()
		if v.txns.Match(k) == nil {
			t.Fatal("setup: transaction gone before Timer D")
		}

		// Timer D (32s default for a non-2xx INVITE final) removes it.
		v.timers.CheckNow(time.Now().Add(time.Minute))
		if v.txns.Match(k) != nil {
			t.Fatal("transaction survived Timer D")
		}

		upBefore := len(s.originMsgs())
		dropsBefore := v.prof.Counter("proxy.drops").Value()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusBusyHere, "late"), nil)
			}()
		}
		wg.Wait()
		if got := len(s.originMsgs()); got != upBefore {
			t.Errorf("late final relayed after Timer D (%d upstream sends)", got-upBefore)
		}
		if v.prof.Counter("proxy.drops").Value() != dropsBefore+4 {
			t.Errorf("late finals not counted as drops")
		}
	})
}

// The two scenarios below race a worker that reads the stored request
// against the final that makes the transaction give it back. They feed the
// engine parsed — pooled — messages and release them as a receive loop does,
// while a third goroutine churns the pool with another call's text: a
// request released too early comes back from the pool carrying that text,
// and any response built from it names the wrong call.

// wireRequest renders a caller's request to user1 as it arrives on the wire.
func wireRequest(method sipmsg.Method, call string) []byte {
	return []byte(string(method) + " sip:user1@test.dom SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP 10.0.0.1:5071;branch=z9hG4bK" + call + "\r\n" +
		"Max-Forwards: 70\r\n" +
		"From: <sip:user0@test.dom>;tag=" + call + "\r\n" +
		"To: <sip:user1@test.dom>\r\n" +
		"Call-ID: " + call + "\r\n" +
		"CSeq: 1 " + string(method) + "\r\n" +
		"Content-Length: 0\r\n\r\n")
}

func wireInvite(call string) []byte { return wireRequest(sipmsg.INVITE, call) }
func wireCancel(call string) []byte { return wireRequest(sipmsg.CANCEL, call) }

func wireOK(call, proxyVia string) []byte {
	return []byte("SIP/2.0 200 OK\r\n" +
		"Via: " + proxyVia + "\r\n" +
		"Via: SIP/2.0/UDP 10.0.0.1:5071;branch=z9hG4bK" + call + "\r\n" +
		"From: <sip:user0@test.dom>;tag=" + call + "\r\n" +
		"To: <sip:user1@test.dom>;tag=callee\r\n" +
		"Call-ID: " + call + "\r\n" +
		"CSeq: 1 INVITE\r\n" +
		"Content-Length: 0\r\n\r\n")
}

// handleWire is one turn of a receive loop.
func handleWire(t *testing.T, v *env, s Sender, wire []byte, origin any) {
	m, err := sipmsg.Parse(wire)
	if err != nil {
		t.Error(err)
		return
	}
	v.engine.Handle(s, m, origin)
	m.Release()
}

// churnPool parses and releases another call's INVITE on its own goroutine
// until the returned stop function is called (which waits for it to exit;
// calling it again is harmless).
func churnPool() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		wire := wireInvite("poison")
		for {
			select {
			case <-quit:
				return
			default:
			}
			if m, err := sipmsg.Parse(wire); err == nil {
				m.Release()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit) }); <-done }
}

// stagger holds back one side of a two-way race so that every interleaving
// gets its turn: a third of the iterations give side 0 a head start long
// enough to win, a third side 1, and the rest start both within a few
// microseconds of each other, the offset sliding with the iteration.
func stagger(i, side int) {
	var wait time.Duration
	switch i % 3 {
	case 0, 1:
		if side != i%3 {
			wait = 300 * time.Microsecond
		}
	case 2:
		wait = time.Duration([]int{(i / 3) % 5, (i / 15) % 5}[side]) * 3 * time.Microsecond
	}
	for until := time.Now().Add(wait); time.Now().Before(until); {
	}
}

// checkOneInviteFinal asserts that nothing sent upstream was built from the
// churned text and that this call's INVITE got exactly one final, whose
// status it returns. Messages of earlier calls are Timer G replaying a 408
// that won its race, and are not this call's business.
func checkOneInviteFinal(t *testing.T, sent []sentMsg, call string, i int) int {
	t.Helper()
	finals, status := 0, 0
	for _, sm := range sent {
		switch sm.msg.CallID() {
		case "poison":
			t.Fatalf("iteration %d: a %d went upstream carrying the churned call's headers: built from a recycled message",
				i, sm.msg.StatusCode)
		case call:
			if _, method, _ := sm.msg.CSeq(); method == sipmsg.INVITE && sm.msg.StatusCode >= 200 {
				finals++
				status = sm.msg.StatusCode
			}
		}
	}
	if finals != 1 {
		t.Fatalf("iteration %d: the INVITE got %d finals", i, finals)
	}
	return status
}

// TestRaceMatrixCancel487VsFinal: the CANCEL's worker builds the 487 from
// inv.Request() while another worker relays the 200 that completes the
// INVITE and returns its request to the pool. Whichever wins, the INVITE
// gets one final, the CANCEL its 200, and no response is built from a
// message that has been recycled.
func TestRaceMatrixCancel487VsFinal(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		idle := sipmsg.PoolOutstanding()
		stopChurn := churnPool()
		defer stopChurn()
		won := map[int]int{}
		for i := 0; i < 300; i++ {
			call := fmt.Sprintf("c487-%d-%d", shards, i)
			s := &fakeSender{}
			handleWire(t, v, s, wireInvite(call), "caller")
			proxyVia, _ := s.addrMsgs()[0].msg.Get("Via")
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); stagger(i, 0); handleWire(t, v, s, wireCancel(call), "caller") }()
			go func() { defer wg.Done(); stagger(i, 1); handleWire(t, v, s, wireOK(call, proxyVia), nil) }()
			wg.Wait()

			status := checkOneInviteFinal(t, s.originMsgs(), call, i)
			if status != sipmsg.StatusOK && status != sipmsg.StatusRequestTerminated {
				t.Fatalf("iteration %d: INVITE final %d", i, status)
			}
			won[status]++
			cancelOKs := 0
			for _, sm := range s.originMsgs() {
				if _, method, _ := sm.msg.CSeq(); method == sipmsg.CANCEL && sm.msg.StatusCode == sipmsg.StatusOK {
					cancelOKs++
				}
			}
			if cancelOKs != 1 {
				t.Fatalf("iteration %d: CANCEL answered 200 %d times", i, cancelOKs)
			}
		}
		stopChurn()
		if len(won) != 2 {
			t.Errorf("finals %v: one side won every race, the other interleaving never ran", won)
		}
		// Every transaction terminates; what the 487 ones held for Timer D
		// comes back too.
		v.timers.CheckNow(time.Now().Add(2 * time.Hour))
		if got := sipmsg.PoolOutstanding(); got != idle {
			t.Errorf("%d pooled messages outstanding after termination, idle was %d", got, idle)
		}
	})
}

// TestRaceMatrixTimerB408VsFinal: Timer B fires on the timer goroutine and
// builds the 408 from the stored request while a worker relays the
// downstream 200. One of them completes the transaction; the other finds it
// answered — and, if it is the timer, its request already given back.
func TestRaceMatrixTimerB408VsFinal(t *testing.T) {
	eachShardCount(t, func(t *testing.T, shards int) {
		v := newRaceEnv(t, shards)
		timerOut := &fakeSender{}
		v.engine.SetTimerSender(timerOut)
		idle := sipmsg.PoolOutstanding()
		stopChurn := churnPool()
		defer stopChurn()
		won := map[int]int{}
		for i := 0; i < 300; i++ {
			call := fmt.Sprintf("c408-%d-%d", shards, i)
			s := &fakeSender{}
			armed := time.Now()
			handleWire(t, v, s, wireInvite(call), "caller")
			proxyVia, _ := s.addrMsgs()[0].msg.Get("Via")
			var wg sync.WaitGroup
			wg.Add(2)
			// Timer B is 50 ms in this environment; no removal timer (1 h)
			// comes due with it.
			go func() { defer wg.Done(); stagger(i, 0); v.timers.CheckNow(armed.Add(time.Second)) }()
			go func() { defer wg.Done(); stagger(i, 1); handleWire(t, v, s, wireOK(call, proxyVia), nil) }()
			wg.Wait()

			// The 408 leaves through the timer sender, the 200 through the
			// worker's: look at both.
			status := checkOneInviteFinal(t, append(s.originMsgs(), timerOut.originMsgs()...), call, i)
			if status != sipmsg.StatusOK && status != sipmsg.StatusRequestTimeout {
				t.Fatalf("iteration %d: INVITE final %d", i, status)
			}
			won[status]++
		}
		stopChurn()
		if len(won) != 2 {
			t.Errorf("finals %v: one side won every race, the other interleaving never ran", won)
		}
		v.timers.CheckNow(time.Now().Add(2 * time.Hour))
		if got := sipmsg.PoolOutstanding(); got != idle {
			t.Errorf("%d pooled messages outstanding after termination, idle was %d", got, idle)
		}
	})
}
