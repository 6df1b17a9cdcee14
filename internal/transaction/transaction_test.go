package transaction

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
)

func newTestTable(cfg Config) (*Table, *timerlist.List) {
	timers := timerlist.NewManual()
	return NewTable(cfg, timers, metrics.NewProfile()), timers
}

func inviteReq(callID string) *sipmsg.Message {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.INVITE,
		RequestURI: sipmsg.URI{User: "b", Host: "y.com"},
		From:       sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "x.com"}, Params: map[string]string{"tag": "t"}},
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: "b", Host: "y.com"}},
		CallID:     callID,
		CSeq:       1,
		Via:        sipmsg.Via{Transport: "UDP", Host: "x.com", Port: 5071},
	})
}

// rendered is m's wire text, "" for nil. The tests compare what a replay
// would put on the wire, not which object carries it: a final kept only as
// its wire image comes back as a new message each time.
func rendered(m *sipmsg.Message) string {
	if m == nil {
		return ""
	}
	return string(m.AppendTo(nil))
}

func key(t *testing.T, m *sipmsg.Message) string {
	t.Helper()
	k, err := m.TransactionKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestShardGeometry(t *testing.T) {
	tb, _ := newTestTable(Config{})
	def := DefaultShards()
	if tb.ShardCount() != def {
		t.Errorf("default ShardCount = %d, want %d", tb.ShardCount(), def)
	}
	if def < 16 || def&(def-1) != 0 {
		t.Errorf("DefaultShards = %d, want a power of two >= 16", def)
	}
	tb7, _ := newTestTable(Config{Shards: 7})
	if tb7.ShardCount() != 8 {
		t.Errorf("Shards=7 rounded to %d, want 8", tb7.ShardCount())
	}
	tb64, _ := newTestTable(Config{Shards: 64})
	if tb64.ShardCount() != 64 {
		t.Errorf("Shards=64 gave %d", tb64.ShardCount())
	}
}

func TestCreateAndRetransmitDetection(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c1")
	k := key(t, req)
	tx, retr := tb.Create(k, req, "origin1")
	if retr {
		t.Fatal("first Create reported retransmission")
	}
	if tx.Origin != "origin1" {
		t.Errorf("Origin = %v", tx.Origin)
	}
	tx2, retr2 := tb.Create(k, req, "origin2")
	if !retr2 || tx2 != tx {
		t.Error("second Create should return the existing transaction")
	}
	if tx.State() != StateProceeding {
		t.Errorf("state = %v", tx.State())
	}
}

func TestTransactionCompletesExactlyOnce(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c2")
	tx, _ := tb.Create(key(t, req), req, nil)
	final := sipmsg.NewResponse(req, sipmsg.StatusOK, "tag")
	if !tb.SendFinal(tx, final, nil) {
		t.Fatal("first SendFinal failed")
	}
	if tb.SendFinal(tx, final, nil) {
		t.Fatal("second SendFinal succeeded; must be exactly once")
	}
	if tx.State() != StateCompleted {
		t.Errorf("state = %v", tx.State())
	}
	if got, want := rendered(tx.LastResponse()), rendered(final); got != want {
		t.Errorf("LastResponse renders\n%s\nwant the final\n%s", got, want)
	}
}

func TestMatchResponseViaForwardedKey(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c3")
	tx, _ := tb.Create(key(t, req), req, nil)

	fwd := req.Clone()
	fwd.Prepend("Via", sipmsg.Via{Transport: "UDP", Host: "proxy", Port: 5060,
		Params: map[string]string{"branch": sipmsg.NewBranch()}}.String())
	tb.SetForwarded(tx, key(t, fwd), fwd, nil)

	if got := tb.Match(key(t, fwd)); got != tx {
		t.Error("response did not match via forwarded key")
	}
	if tx.Forwarded() != fwd {
		t.Error("Forwarded not stored")
	}
}

func TestTerminateRemovesBothKeys(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c4")
	upKey := key(t, req)
	tx, _ := tb.Create(upKey, req, nil)
	fwd := req.Clone()
	fwd.Prepend("Via", sipmsg.Via{Transport: "UDP", Host: "p", Params: map[string]string{"branch": sipmsg.NewBranch()}}.String())
	downKey := key(t, fwd)
	tb.SetForwarded(tx, downKey, fwd, nil)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	tb.Terminate(tx)
	if tb.Len() != 0 {
		t.Errorf("Len = %d after Terminate", tb.Len())
	}
	if tb.Match(upKey) != nil || tb.Match(downKey) != nil {
		t.Error("terminated transaction still matchable")
	}
	tb.Terminate(tx) // idempotent
}

// TestTerminateAllEmptiesTable leaves a forwarded and a plain transaction
// pending, as a server stopping under load would, and checks TerminateAll
// removes both and counts neither as pending.
func TestTerminateAllEmptiesTable(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c4a")
	tx, _ := tb.Create(key(t, req), req, nil)
	fwd := req.Clone()
	fwd.Prepend("Via", sipmsg.Via{Transport: "UDP", Host: "p", Params: map[string]string{"branch": sipmsg.NewBranch()}}.String())
	tb.SetForwarded(tx, key(t, fwd), fwd, nil)
	other := inviteReq("c4b")
	tb.Create(key(t, other), other, nil)
	tb.TerminateAll()
	if tb.Len() != 0 || tb.Pending() != 0 {
		t.Errorf("Len = %d, Pending = %d after TerminateAll", tb.Len(), tb.Pending())
	}
	if tx.State() != StateTerminated {
		t.Errorf("state = %v, want terminated", tx.State())
	}
}

func TestLingerThenRemoval(t *testing.T) {
	tb, timers := newTestTable(Config{Linger: 50 * time.Millisecond})
	req := inviteReq("c5")
	tx, _ := tb.Create(key(t, req), req, nil)
	tb.SendFinal(tx, sipmsg.NewResponse(req, sipmsg.StatusOK, "g"), nil)

	// Still matchable during the linger window (absorbs retransmits).
	if tb.Match(key(t, req)) != tx {
		t.Error("completed transaction should linger")
	}
	timers.CheckNow(time.Now().Add(time.Second))
	if tb.Match(key(t, req)) != nil {
		t.Error("transaction not removed after linger")
	}
	if tx.State() != StateTerminated {
		t.Errorf("state = %v", tx.State())
	}
}

// timerFuncs adapts two closures to ClientTimerHandler.
type timerFuncs struct {
	send   func(*sipmsg.Message)
	expire func()
}

func (f timerFuncs) RetransmitRequest(_ *Transaction, fwd *sipmsg.Message) { f.send(fwd) }
func (f timerFuncs) RequestTimedOut(*Transaction)                          { f.expire() }

func TestRetransmitScheduleDoubles(t *testing.T) {
	tb, timers := newTestTable(Config{T1: 10 * time.Millisecond, TimerB: 70 * time.Millisecond})
	req := inviteReq("c6")
	tx, _ := tb.Create(key(t, req), req, nil)
	fwd := req.Clone()
	tb.SetForwarded(tx, "downkey|INVITE", fwd, nil)

	var mu sync.Mutex
	var sends []time.Duration
	expired := false
	base := time.Now()
	tb.ArmClientTimers(tx, timerFuncs{
		send: func(*sipmsg.Message) {
			mu.Lock()
			sends = append(sends, 0)
			mu.Unlock()
		},
		expire: func() { expired = true },
	})
	// Walk virtual time: fires at 10, 30, 70 (cumulative) then TimerB.
	for _, at := range []time.Duration{5, 10, 20, 30, 50, 70, 100, 200} {
		timers.CheckNow(base.Add(at * time.Millisecond))
	}
	mu.Lock()
	n := len(sends)
	mu.Unlock()
	if n < 2 {
		t.Errorf("retransmissions = %d, want >= 2", n)
	}
	if !expired {
		t.Error("TimerB never fired")
	}
	if tx.Attempts() != n {
		t.Errorf("Attempts = %d, sends = %d", tx.Attempts(), n)
	}
}

func TestCompleteStopsRetransmission(t *testing.T) {
	tb, timers := newTestTable(Config{T1: 10 * time.Millisecond})
	req := inviteReq("c7")
	tx, _ := tb.Create(key(t, req), req, nil)
	tb.SetForwarded(tx, "dk|INVITE", req.Clone(), nil)

	sent := 0
	tb.ArmClientTimers(tx, timerFuncs{send: func(*sipmsg.Message) { sent++ }, expire: func() {}})
	tb.SendFinal(tx, sipmsg.NewResponse(req, sipmsg.StatusOK, "g"), nil)
	timers.CheckNow(time.Now().Add(time.Minute))
	if sent != 0 {
		t.Errorf("retransmitted %d times after completion", sent)
	}
}

func TestRetransmittedRequestNeverCreatesSecondTransaction(t *testing.T) {
	// Property: any interleaving of Create calls with the same key yields
	// exactly one created transaction.
	f := func(n uint8) bool {
		tb, _ := newTestTable(Config{})
		req := inviteReq("p1")
		k := key(t, req)
		createdCount := 0
		var first *Transaction
		for i := 0; i < int(n%20)+2; i++ {
			tx, retr := tb.Create(k, req, nil)
			if !retr {
				createdCount++
				first = tx
			} else if tx != first {
				return false
			}
		}
		return createdCount == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCreateSameKey(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c8")
	k := key(t, req)
	var createdCount int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, retr := tb.Create(k, req, nil)
			if !retr {
				mu.Lock()
				createdCount++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if createdCount != 1 {
		t.Errorf("created %d transactions for one key", createdCount)
	}
}

func TestRecordUpstreamResponse(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("c9")
	tx, _ := tb.Create(key(t, req), req, nil)
	trying := sipmsg.NewResponse(req, sipmsg.StatusTrying, "")
	tx.RecordUpstreamResponse(trying)
	if rendered(tx.LastResponse()) != rendered(trying) {
		t.Error("upstream response not recorded")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.T1 != 500*time.Millisecond {
		t.Errorf("T1 = %v", cfg.T1)
	}
	if cfg.TimerB != 32*time.Second {
		t.Errorf("TimerB = %v", cfg.TimerB)
	}
	if cfg.T2 != 4*time.Second {
		t.Errorf("T2 = %v", cfg.T2)
	}
	if cfg.TimerD != 32*time.Second {
		t.Errorf("TimerD = %v", cfg.TimerD)
	}
	if cfg.TimerH != 32*time.Second {
		t.Errorf("TimerH = %v", cfg.TimerH)
	}
	if cfg.Linger != 2*time.Second {
		t.Errorf("Linger = %v", cfg.Linger)
	}
}

func TestStateString(t *testing.T) {
	if StateProceeding.String() != "proceeding" || StateCompleted.String() != "completed" ||
		StateTerminated.String() != "terminated" || State(9).String() != "unknown" {
		t.Error("State.String broken")
	}
}

func byeReq(callID string) *sipmsg.Message {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.BYE,
		RequestURI: sipmsg.URI{User: "b", Host: "y.com"},
		From:       sipmsg.NameAddr{URI: sipmsg.URI{User: "a", Host: "x.com"}, Params: map[string]string{"tag": "t"}},
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: "b", Host: "y.com"}, Params: map[string]string{"tag": "u"}},
		CallID:     callID,
		CSeq:       2,
		Via:        sipmsg.Via{Transport: "UDP", Host: "x.com", Port: 5071},
	})
}

func TestMachineSelectionByMethod(t *testing.T) {
	tb, _ := newTestTable(Config{})
	inv, _ := tb.Create("k-inv|INVITE", inviteReq("m1"), nil)
	if inv.ServerState() != FProceeding {
		t.Errorf("INVITE server starts in %v, want proceeding", inv.ServerState())
	}
	bye, _ := tb.Create("k-bye|BYE", byeReq("m1"), nil)
	if bye.ServerState() != FTrying {
		t.Errorf("non-INVITE server starts in %v, want trying", bye.ServerState())
	}
	if inv.ClientState() != FInit || bye.ClientState() != FInit {
		t.Error("client machines must stay uninitialised before SetForwarded")
	}
}

func TestOnRetransmitRepliesPerMachine(t *testing.T) {
	tb, _ := newTestTable(Config{})
	// Non-INVITE in Trying: nothing sent upstream yet, absorb silently.
	bye, _ := tb.Create("r-bye|BYE", byeReq("r1"), nil)
	if got := tb.OnRetransmit(bye); got != nil {
		t.Errorf("non-INVITE Trying retransmit replayed %v, want nil", got)
	}
	// INVITE in Proceeding replays the recorded 100 Trying.
	req := inviteReq("r2")
	inv, _ := tb.Create("r-inv|INVITE", req, nil)
	trying := sipmsg.NewResponse(req, sipmsg.StatusTrying, "")
	inv.RecordUpstreamResponse(trying)
	if got := tb.OnRetransmit(inv); rendered(got) != rendered(trying) {
		t.Errorf("INVITE Proceeding retransmit replayed %q, want the 100", rendered(got))
	}
	// Completed replays the final, byte for byte, every time.
	final := sipmsg.NewResponse(req, sipmsg.StatusOK, "g")
	tb.SendFinal(inv, final, nil)
	for i := 0; i < 2; i++ {
		got := tb.OnRetransmit(inv)
		if rendered(got) != rendered(final) {
			t.Fatalf("Completed retransmit %d replayed\n%s\nwant the final\n%s", i, rendered(got), rendered(final))
		}
		if got.Pooled() {
			t.Error("the replay is a pooled message: it would cross proxy.Sender")
		}
	}
	// So does a non-INVITE transaction in Completed.
	bye2, _ := tb.Create("r-bye2|BYE", byeReq("r3"), nil)
	byeOK := sipmsg.NewResponse(byeReq("r3"), sipmsg.StatusOK, "g")
	tb.SendFinal(bye2, byeOK, nil)
	if got := tb.OnRetransmit(bye2); rendered(got) != rendered(byeOK) {
		t.Errorf("non-INVITE Completed retransmit replayed %q, want the 200", rendered(got))
	}
}

// TestTimerGRetransmitsFinalUntilAck pins the §17.2.1 ACK wait: a non-2xx
// INVITE final is retransmitted on Timer G with doubling intervals capped
// at T2, and the ACK moves the machine to Confirmed, stopping the cycle.
func TestTimerGRetransmitsFinalUntilAck(t *testing.T) {
	tb, timers := newTestTable(Config{
		T1: 10 * time.Millisecond, T2: 20 * time.Millisecond,
		TimerH: 500 * time.Millisecond, TimerD: time.Hour,
	})
	req := inviteReq("g1")
	tx, _ := tb.Create(key(t, req), req, nil)
	final := sipmsg.NewResponse(req, sipmsg.StatusBusyHere, "g")

	var mu sync.Mutex
	replays := 0
	if !tb.SendFinal(tx, final, func(m *sipmsg.Message) {
		mu.Lock()
		replays++
		mu.Unlock()
		if m != final {
			t.Error("replayed a different message than the final")
		}
	}) {
		t.Fatal("SendFinal failed")
	}
	if tx.ServerState() != FCompleted {
		t.Fatalf("server state = %v, want completed", tx.ServerState())
	}
	// G fires at 10, then 10+20=30, then capped: 50, 70, ...
	base := time.Now()
	for _, at := range []time.Duration{10, 30, 50} {
		timers.CheckNow(base.Add(at * time.Millisecond))
	}
	mu.Lock()
	n := replays
	mu.Unlock()
	if n < 3 {
		t.Fatalf("Timer G replays = %d, want >= 3", n)
	}
	if tx.FinalAttempts() != n {
		t.Errorf("FinalAttempts = %d, replays = %d", tx.FinalAttempts(), n)
	}

	// The ACK confirms; the cycle must stop.
	if disp := tb.OnAck(tx); disp != AckAbsorbed {
		t.Fatalf("OnAck = %v, want absorbed", disp)
	}
	if tx.ServerState() != FConfirmed {
		t.Errorf("server state after ACK = %v, want confirmed", tx.ServerState())
	}
	timers.CheckNow(base.Add(time.Minute))
	mu.Lock()
	after := replays
	mu.Unlock()
	if after != n {
		t.Errorf("Timer G kept firing after ACK: %d -> %d", n, after)
	}
	// A duplicate ACK is absorbed in Confirmed without complaint.
	if disp := tb.OnAck(tx); disp != AckAbsorbed {
		t.Errorf("duplicate OnAck = %v, want absorbed", disp)
	}
}

// TestTimerHGivesUpWithoutAck pins the other exit from Completed: no ACK
// ever arrives and Timer H terminates the transaction.
func TestTimerHGivesUpWithoutAck(t *testing.T) {
	tb, timers := newTestTable(Config{
		T1: 10 * time.Millisecond, TimerH: 50 * time.Millisecond, TimerD: time.Hour,
	})
	req := inviteReq("h1")
	upKey := key(t, req)
	tx, _ := tb.Create(upKey, req, nil)
	final := sipmsg.NewResponse(req, sipmsg.StatusBusyHere, "g")
	tb.SendFinal(tx, final, func(*sipmsg.Message) {})
	timers.CheckNow(time.Now().Add(time.Minute))
	if tx.State() != StateTerminated {
		t.Errorf("state = %v after Timer H, want terminated", tx.State())
	}
	if tb.Match(upKey) != nil {
		t.Error("transaction still matchable after Timer H")
	}
}

func TestAckForTwoHundredForwarded(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("a1")
	tx, _ := tb.Create(key(t, req), req, nil)
	tb.SendFinal(tx, sipmsg.NewResponse(req, sipmsg.StatusOK, "g"), nil)
	if disp := tb.OnAck(tx); disp != AckForward {
		t.Errorf("ACK for 2xx final: OnAck = %v, want forward", disp)
	}
}

func TestRequestCancelProtocol(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("cx1")
	tx, _ := tb.Create(key(t, req), req, nil)

	// CANCEL before the forward is on the wire: deferred to the forwarder.
	fwdMsg, deferred, alreadyFinal := tx.RequestCancel()
	if fwdMsg != nil || !deferred || alreadyFinal {
		t.Fatalf("pre-forward RequestCancel = (%v, %v, %v), want (nil, true, false)",
			fwdMsg, deferred, alreadyFinal)
	}
	// The forwarding worker finds out it owns the downstream CANCEL.
	if !tx.MarkForwardSent() {
		t.Fatal("MarkForwardSent must report the raced-in cancel")
	}

	// CANCEL after the forward went out: caller sends it, using fwd.
	tx2, _ := tb.Create("cx2|INVITE", inviteReq("cx2"), nil)
	fwd := inviteReq("cx2")
	tb.SetForwarded(tx2, "cx2down|INVITE", fwd, nil)
	if tx2.MarkForwardSent() {
		t.Fatal("MarkForwardSent with no cancel pending")
	}
	got, deferred2, final2 := tx2.RequestCancel()
	if got != fwd || deferred2 || final2 {
		t.Fatalf("post-forward RequestCancel = (%v, %v, %v), want (fwd, false, false)",
			got, deferred2, final2)
	}

	// CANCEL after the final: nothing to cancel.
	tx3, _ := tb.Create("cx3|INVITE", inviteReq("cx3"), nil)
	tb.SendFinal(tx3, sipmsg.NewResponse(tx3.Request(), sipmsg.StatusOK, "g"), nil)
	if _, _, final3 := tx3.RequestCancel(); !final3 {
		t.Error("RequestCancel after final must report alreadyFinal")
	}
}

func TestOnClientResponseDispositions(t *testing.T) {
	tb, _ := newTestTable(Config{})
	req := inviteReq("d1")
	tx, _ := tb.Create(key(t, req), req, nil)
	fwd := req.Clone()
	tb.SetForwarded(tx, "d1down|INVITE", fwd, nil)

	hundred := sipmsg.NewResponse(req, sipmsg.StatusTrying, "")
	if disp := tb.OnClientResponse(tx, hundred); disp != RespAbsorb100 {
		t.Errorf("downstream 100: %v, want absorb-100", disp)
	}
	if rendered(tx.LastResponse()) != rendered(hundred) {
		t.Error("absorbed 100 must still be recorded for retransmit replay")
	}
	ringing := sipmsg.NewResponse(req, sipmsg.StatusRinging, "")
	if disp := tb.OnClientResponse(tx, ringing); disp != RespPassProvisional {
		t.Errorf("downstream 180: %v, want pass-provisional", disp)
	}
	busy := sipmsg.NewResponse(req, sipmsg.StatusBusyHere, "g")
	if disp := tb.OnClientResponse(tx, busy); disp != RespPassFinalAck {
		t.Errorf("first non-2xx INVITE final: %v, want pass-final-ack", disp)
	}
	// Retransmitted final: re-ACK downstream, never pass upstream again.
	if disp := tb.OnClientResponse(tx, busy); disp != RespDupFinalAck {
		t.Errorf("retransmitted final: %v, want dup-final-ack", disp)
	}

	// A non-INVITE 200 passes with no ACK obligations.
	bye, _ := tb.Create("d2|BYE", byeReq("d2"), nil)
	tb.SetForwarded(bye, "d2down|BYE", byeReq("d2"), nil)
	ok := sipmsg.NewResponse(bye.Request(), sipmsg.StatusOK, "g")
	if disp := tb.OnClientResponse(bye, ok); disp != RespPassFinal {
		t.Errorf("non-INVITE 200: %v, want pass-final", disp)
	}
	if disp := tb.OnClientResponse(bye, ok); disp != RespAbsorb {
		t.Errorf("retransmitted non-INVITE 200: %v, want absorb", disp)
	}
}

// TestLateProvisionalAfterUpstreamFinal pins the CANCEL/487 interleaving:
// once the server side answered upstream, a straggling downstream 180 is
// absorbed and must not clobber lastResp (Timer G replays it).
func TestLateProvisionalAfterUpstreamFinal(t *testing.T) {
	tb, _ := newTestTable(Config{T1: 10 * time.Millisecond})
	req := inviteReq("lp1")
	tx, _ := tb.Create(key(t, req), req, nil)
	tb.SetForwarded(tx, "lp1down|INVITE", req.Clone(), nil)
	final := sipmsg.NewResponse(req, sipmsg.StatusRequestTerminated, "g")
	tb.SendFinal(tx, final, func(*sipmsg.Message) {})

	ringing := sipmsg.NewResponse(req, sipmsg.StatusRinging, "")
	if disp := tb.OnClientResponse(tx, ringing); disp != RespAbsorb {
		t.Errorf("late 180 after upstream final: %v, want absorb", disp)
	}
	if rendered(tx.LastResponse()) != rendered(final) {
		t.Error("late provisional clobbered lastResp")
	}
}
