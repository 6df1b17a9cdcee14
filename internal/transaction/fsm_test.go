package transaction

import (
	"testing"

	"gosip/internal/sipmsg"
)

// transition is one row of the §17 conformance tables: machine, state,
// event in, expected state/actions/definedness out.
type transition struct {
	name string
	m    Machine
	from FSMState
	ev   Event
	want FSMState
	act  Action
	ok   bool
}

// undef marks an event that must be rejected (ok=false, state unchanged).
func undef(m Machine, s FSMState, ev Event) transition {
	return transition{name: "undefined", m: m, from: s, ev: ev, want: s, ok: false}
}

// inviteServerTable is §17.2.1 in full, including the timer firings.
var inviteServerTable = []transition{
	// Proceeding: TU responses drive the machine.
	{name: "retransmit replays", m: MachineInviteServer, from: FProceeding, ev: EvRequest, want: FProceeding, act: ActReplay, ok: true},
	{name: "TU 1xx", m: MachineInviteServer, from: FProceeding, ev: Ev1xx, want: FProceeding, ok: true},
	{name: "TU 2xx terminates", m: MachineInviteServer, from: FProceeding, ev: Ev2xx, want: FTerminated, ok: true},
	{name: "TU 300+ unreliable arms G+H", m: MachineInviteServer, from: FProceeding, ev: Ev300Plus, want: FCompleted, act: ActArmTimeout | ActArmRetrans, ok: true},
	{name: "transport error", m: MachineInviteServer, from: FProceeding, ev: EvTransportErr, want: FTerminated, ok: true},
	undef(MachineInviteServer, FProceeding, EvAck),
	undef(MachineInviteServer, FProceeding, EvTimerG),
	undef(MachineInviteServer, FProceeding, EvTimerH),
	undef(MachineInviteServer, FProceeding, EvTimerA),

	// Completed: retransmit the final until ACK or Timer H.
	{name: "retransmit replays final", m: MachineInviteServer, from: FCompleted, ev: EvRequest, want: FCompleted, act: ActReplay, ok: true},
	{name: "Timer G retransmits final", m: MachineInviteServer, from: FCompleted, ev: EvTimerG, want: FCompleted, act: ActRetransmitFinal | ActArmRetrans, ok: true},
	{name: "Timer H gives up", m: MachineInviteServer, from: FCompleted, ev: EvTimerH, want: FTerminated, act: ActTimeoutTU, ok: true},
	{name: "ACK confirms (unreliable)", m: MachineInviteServer, from: FCompleted, ev: EvAck, want: FConfirmed, act: ActArmLinger, ok: true},
	{name: "transport error", m: MachineInviteServer, from: FCompleted, ev: EvTransportErr, want: FTerminated, ok: true},
	undef(MachineInviteServer, FCompleted, Ev1xx),
	undef(MachineInviteServer, FCompleted, Ev2xx),
	undef(MachineInviteServer, FCompleted, Ev300Plus),

	// Confirmed: absorb stragglers until Timer I.
	{name: "duplicate ACK absorbed", m: MachineInviteServer, from: FConfirmed, ev: EvAck, want: FConfirmed, ok: true},
	{name: "retransmit replays final", m: MachineInviteServer, from: FConfirmed, ev: EvRequest, want: FConfirmed, act: ActReplay, ok: true},
	{name: "Timer I terminates", m: MachineInviteServer, from: FConfirmed, ev: EvTimerI, want: FTerminated, ok: true},
	undef(MachineInviteServer, FConfirmed, EvTimerG),
	undef(MachineInviteServer, FConfirmed, EvTimerH),

	// Terminal/unstarted states reject everything.
	undef(MachineInviteServer, FTerminated, EvRequest),
	undef(MachineInviteServer, FTerminated, EvAck),
	undef(MachineInviteServer, FInit, EvRequest),
}

// nonInviteServerTable is §17.2.2 in full.
var nonInviteServerTable = []transition{
	// Trying: nothing to replay yet — retransmissions are absorbed silently.
	{name: "retransmit absorbed silently", m: MachineNonInviteServer, from: FTrying, ev: EvRequest, want: FTrying, ok: true},
	{name: "TU 1xx proceeds", m: MachineNonInviteServer, from: FTrying, ev: Ev1xx, want: FProceeding, ok: true},
	{name: "TU 2xx completes (unreliable)", m: MachineNonInviteServer, from: FTrying, ev: Ev2xx, want: FCompleted, act: ActArmLinger, ok: true},
	{name: "TU 300+ completes (unreliable)", m: MachineNonInviteServer, from: FTrying, ev: Ev300Plus, want: FCompleted, act: ActArmLinger, ok: true},
	{name: "transport error", m: MachineNonInviteServer, from: FTrying, ev: EvTransportErr, want: FTerminated, ok: true},
	undef(MachineNonInviteServer, FTrying, EvAck),
	undef(MachineNonInviteServer, FTrying, EvTimerJ),

	// Proceeding: replay the provisional.
	{name: "retransmit replays 1xx", m: MachineNonInviteServer, from: FProceeding, ev: EvRequest, want: FProceeding, act: ActReplay, ok: true},
	{name: "TU another 1xx", m: MachineNonInviteServer, from: FProceeding, ev: Ev1xx, want: FProceeding, ok: true},
	{name: "TU 2xx completes", m: MachineNonInviteServer, from: FProceeding, ev: Ev2xx, want: FCompleted, act: ActArmLinger, ok: true},
	{name: "transport error", m: MachineNonInviteServer, from: FProceeding, ev: EvTransportErr, want: FTerminated, ok: true},

	// Completed: replay the final until Timer J.
	{name: "retransmit replays final", m: MachineNonInviteServer, from: FCompleted, ev: EvRequest, want: FCompleted, act: ActReplay, ok: true},
	{name: "Timer J terminates", m: MachineNonInviteServer, from: FCompleted, ev: EvTimerJ, want: FTerminated, ok: true},
	undef(MachineNonInviteServer, FCompleted, Ev2xx),
	undef(MachineNonInviteServer, FCompleted, Ev1xx),

	undef(MachineNonInviteServer, FTerminated, EvRequest),
}

// inviteClientTable is §17.1.1 in full. Timer B doubles as the proxy's
// Timer C bound in Proceeding (documented departure).
var inviteClientTable = []transition{
	// Calling: retransmit on Timer A until any response or Timer B.
	{name: "Timer A retransmits", m: MachineInviteClient, from: FCalling, ev: EvTimerA, want: FCalling, act: ActRetransmitReq | ActArmRetrans, ok: true},
	{name: "Timer B times out", m: MachineInviteClient, from: FCalling, ev: EvTimerB, want: FTerminated, act: ActTimeoutTU, ok: true},
	{name: "1xx proceeds", m: MachineInviteClient, from: FCalling, ev: Ev1xx, want: FProceeding, act: ActPassUp, ok: true},
	{name: "2xx terminates", m: MachineInviteClient, from: FCalling, ev: Ev2xx, want: FTerminated, act: ActPassUp, ok: true},
	{name: "300+ completes + ACK (unreliable)", m: MachineInviteClient, from: FCalling, ev: Ev300Plus, want: FCompleted, act: ActPassUp | ActGenACK | ActArmLinger, ok: true},
	{name: "transport error", m: MachineInviteClient, from: FCalling, ev: EvTransportErr, want: FTerminated, act: ActTimeoutTU, ok: true},
	undef(MachineInviteClient, FCalling, EvRequest),
	undef(MachineInviteClient, FCalling, EvTimerD),

	// Proceeding: Timer A stops; finals as in Calling.
	{name: "late Timer A inert", m: MachineInviteClient, from: FProceeding, ev: EvTimerA, want: FProceeding, ok: true},
	{name: "Timer B (as Timer C) times out", m: MachineInviteClient, from: FProceeding, ev: EvTimerB, want: FTerminated, act: ActTimeoutTU, ok: true},
	{name: "more 1xx", m: MachineInviteClient, from: FProceeding, ev: Ev1xx, want: FProceeding, act: ActPassUp, ok: true},
	{name: "2xx terminates", m: MachineInviteClient, from: FProceeding, ev: Ev2xx, want: FTerminated, act: ActPassUp, ok: true},
	{name: "300+ completes + ACK", m: MachineInviteClient, from: FProceeding, ev: Ev300Plus, want: FCompleted, act: ActPassUp | ActGenACK | ActArmLinger, ok: true},
	{name: "transport error", m: MachineInviteClient, from: FProceeding, ev: EvTransportErr, want: FTerminated, act: ActTimeoutTU, ok: true},

	// Completed: re-ACK retransmitted finals until Timer D.
	{name: "retransmitted 300+ re-ACKed", m: MachineInviteClient, from: FCompleted, ev: Ev300Plus, want: FCompleted, act: ActGenACK, ok: true},
	{name: "late 1xx absorbed", m: MachineInviteClient, from: FCompleted, ev: Ev1xx, want: FCompleted, ok: true},
	{name: "late 2xx absorbed", m: MachineInviteClient, from: FCompleted, ev: Ev2xx, want: FCompleted, ok: true},
	{name: "Timer D terminates", m: MachineInviteClient, from: FCompleted, ev: EvTimerD, want: FTerminated, ok: true},
	undef(MachineInviteClient, FCompleted, EvTimerA),
	undef(MachineInviteClient, FCompleted, EvTimerB),

	undef(MachineInviteClient, FTerminated, Ev2xx),
	undef(MachineInviteClient, FTerminated, EvTimerA),
	undef(MachineInviteClient, FInit, Ev1xx),
}

// nonInviteClientTable is §17.1.2 in full. Retransmission continues in
// Proceeding (at the T2 cap), unlike the INVITE client.
var nonInviteClientTable = []transition{
	{name: "Timer E retransmits", m: MachineNonInviteClient, from: FTrying, ev: EvTimerE, want: FTrying, act: ActRetransmitReq | ActArmRetrans, ok: true},
	{name: "Timer F times out", m: MachineNonInviteClient, from: FTrying, ev: EvTimerF, want: FTerminated, act: ActTimeoutTU, ok: true},
	{name: "1xx proceeds", m: MachineNonInviteClient, from: FTrying, ev: Ev1xx, want: FProceeding, act: ActPassUp, ok: true},
	{name: "2xx completes (unreliable)", m: MachineNonInviteClient, from: FTrying, ev: Ev2xx, want: FCompleted, act: ActPassUp | ActArmLinger, ok: true},
	{name: "300+ completes (unreliable)", m: MachineNonInviteClient, from: FTrying, ev: Ev300Plus, want: FCompleted, act: ActPassUp | ActArmLinger, ok: true},
	{name: "transport error", m: MachineNonInviteClient, from: FTrying, ev: EvTransportErr, want: FTerminated, act: ActTimeoutTU, ok: true},
	undef(MachineNonInviteClient, FTrying, EvTimerK),
	undef(MachineNonInviteClient, FTrying, EvAck),

	{name: "Timer E keeps retransmitting", m: MachineNonInviteClient, from: FProceeding, ev: EvTimerE, want: FProceeding, act: ActRetransmitReq | ActArmRetrans, ok: true},
	{name: "Timer F times out", m: MachineNonInviteClient, from: FProceeding, ev: EvTimerF, want: FTerminated, act: ActTimeoutTU, ok: true},
	{name: "more 1xx", m: MachineNonInviteClient, from: FProceeding, ev: Ev1xx, want: FProceeding, act: ActPassUp, ok: true},
	{name: "300+ completes", m: MachineNonInviteClient, from: FProceeding, ev: Ev300Plus, want: FCompleted, act: ActPassUp | ActArmLinger, ok: true},
	{name: "transport error", m: MachineNonInviteClient, from: FProceeding, ev: EvTransportErr, want: FTerminated, act: ActTimeoutTU, ok: true},

	{name: "late 1xx absorbed", m: MachineNonInviteClient, from: FCompleted, ev: Ev1xx, want: FCompleted, ok: true},
	{name: "late 2xx absorbed", m: MachineNonInviteClient, from: FCompleted, ev: Ev2xx, want: FCompleted, ok: true},
	{name: "late 300+ absorbed", m: MachineNonInviteClient, from: FCompleted, ev: Ev300Plus, want: FCompleted, ok: true},
	{name: "Timer K terminates", m: MachineNonInviteClient, from: FCompleted, ev: EvTimerK, want: FTerminated, ok: true},
	undef(MachineNonInviteClient, FCompleted, EvTimerE),
	undef(MachineNonInviteClient, FCompleted, EvTimerF),

	undef(MachineNonInviteClient, FTerminated, Ev2xx),
}

func runTable(t *testing.T, table []transition) {
	t.Helper()
	for _, tr := range table {
		name := tr.m.String() + "/" + tr.from.String() + "/" + tr.ev.String() + "/" + tr.name
		t.Run(name, func(t *testing.T) {
			got, act, ok := Step(tr.m, tr.from, tr.ev)
			if ok != tr.ok {
				t.Fatalf("ok = %v, want %v", ok, tr.ok)
			}
			if !tr.ok {
				if got != tr.from {
					t.Fatalf("rejected event changed state: %v -> %v", tr.from, got)
				}
				return
			}
			if got != tr.want {
				t.Errorf("state = %v, want %v", got, tr.want)
			}
			if act != tr.act {
				t.Errorf("actions = %b, want %b", act, tr.act)
			}
		})
	}
}

func TestInviteServerConformance(t *testing.T)    { runTable(t, inviteServerTable) }
func TestNonInviteServerConformance(t *testing.T) { runTable(t, nonInviteServerTable) }
func TestInviteClientConformance(t *testing.T)    { runTable(t, inviteClientTable) }
func TestNonInviteClientConformance(t *testing.T) { runTable(t, nonInviteClientTable) }

func TestInit(t *testing.T) {
	if s, act := Init(MachineInviteServer); s != FProceeding || act != 0 {
		t.Errorf("invite server Init = %v/%b", s, act)
	}
	if s, act := Init(MachineNonInviteServer); s != FTrying || act != 0 {
		t.Errorf("non-invite server Init = %v/%b", s, act)
	}
	if s, act := Init(MachineInviteClient); s != FCalling || act != ActArmTimeout|ActArmRetrans {
		t.Errorf("invite client Init = %v/%b", s, act)
	}
	if s, act := Init(MachineNonInviteClient); s != FTrying || act != ActArmTimeout|ActArmRetrans {
		t.Errorf("non-invite client Init = %v/%b", s, act)
	}
}

func TestEnumStrings(t *testing.T) {
	for m := MachineInviteServer; m <= MachineNonInviteClient; m++ {
		if m.String() == "unknown" {
			t.Errorf("machine %d has no name", m)
		}
	}
	for s := FInit; s <= FTerminated; s++ {
		if s.String() == "unknown" {
			t.Errorf("state %d has no name", s)
		}
	}
	for ev := EvRequest; ev <= EvTransportErr; ev++ {
		if ev.String() == "unknown" {
			t.Errorf("event %d has no name", ev)
		}
	}
	if Machine(99).String() != "unknown" || FSMState(99).String() != "unknown" || Event(99).String() != "unknown" {
		t.Error("out-of-range values must stringify to unknown")
	}
}

// TestStepAllocs pins event dispatch at zero allocations: Step runs on
// every message and timer firing of every transaction.
func TestStepAllocs(t *testing.T) {
	skipIfRace(t)
	got := testing.AllocsPerRun(1000, func() {
		if _, _, ok := Step(MachineInviteServer, FProceeding, Ev300Plus); !ok {
			t.Fatal("transition rejected")
		}
		if _, _, ok := Step(MachineInviteClient, FCalling, EvTimerA); !ok {
			t.Fatal("transition rejected")
		}
	})
	if got != 0 {
		t.Errorf("Step allocates %.1f/op, want 0", got)
	}
}

// BenchmarkFSMStep measures pure event dispatch across a representative
// mix of machines, states, and events.
func BenchmarkFSMStep(b *testing.B) {
	cases := []struct {
		m  Machine
		s  FSMState
		ev Event
	}{
		{MachineInviteServer, FProceeding, Ev300Plus},
		{MachineInviteServer, FCompleted, EvTimerG},
		{MachineInviteServer, FCompleted, EvAck},
		{MachineNonInviteServer, FTrying, Ev2xx},
		{MachineInviteClient, FCalling, Ev1xx},
		{MachineInviteClient, FCalling, EvTimerA},
		{MachineNonInviteClient, FProceeding, EvTimerE},
		{MachineNonInviteClient, FTrying, Ev2xx},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := cases[i&7]
		Step(c.m, c.s, c.ev)
	}
}

// BenchmarkFSMTransactionLifecycle measures the wired path: create,
// forward, respond, and remove a transaction through the table.
func BenchmarkFSMTransactionLifecycle(b *testing.B) {
	tb, _ := newTestTable(Config{Shards: 64})
	req := inviteReq("bench-call")
	resp := sipmsg.NewResponse(req, sipmsg.StatusOK, "g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx, _ := tb.Create("bench|INVITE", req, nil)
		tb.SetForwarded(tx, "benchdown|INVITE", req, nil)
		tb.OnClientResponse(tx, resp)
		tb.SendFinal(tx, resp, nil)
		tb.Terminate(tx)
	}
}
