// The four RFC 3261 §17 transaction state machines as pure transition
// tables: INVITE/non-INVITE × client/server. Step is a total function over
// (machine, state, event) with no side effects — the Table wires its output
// to real timers, the shard store, and the TU — so the conformance suite can
// enumerate every legal transition (including the timer-driven ones) without
// sockets or schedulers.
//
// The machines are the unreliable-transport ones on every transport. Over a
// reliable one the TU supplies no TimerHandler and the Table arms no
// retransmit or timeout timer; the absorb windows D/I/J/K are table removal
// either way.
//
// Timer naming follows §17 exactly:
//
//	A  INVITE client request retransmit (T1 doubling)
//	B  INVITE client transaction timeout (64·T1)
//	D  INVITE client wait in Completed, absorbs retransmitted finals
//	E  non-INVITE client request retransmit (T1 doubling, capped at T2)
//	F  non-INVITE client transaction timeout (64·T1)
//	G  INVITE server final-response retransmit (T1 doubling, capped at T2)
//	H  INVITE server wait for ACK (64·T1)
//	I  INVITE server wait in Confirmed, absorbs retransmitted ACKs (T4)
//	J  non-INVITE server wait in Completed, absorbs retransmitted requests
//	K  non-INVITE client wait in Completed, absorbs retransmitted finals
package transaction

// Machine identifies one of the four §17 transaction state machines.
type Machine uint8

// The four machines. A proxied request composes two: the upstream leg runs
// a server machine and the downstream leg a client machine.
const (
	MachineInviteServer    Machine = iota // §17.2.1
	MachineNonInviteServer                // §17.2.2
	MachineInviteClient                   // §17.1.1
	MachineNonInviteClient                // §17.1.2
)

func (m Machine) String() string {
	switch m {
	case MachineInviteServer:
		return "invite-server"
	case MachineNonInviteServer:
		return "non-invite-server"
	case MachineInviteClient:
		return "invite-client"
	case MachineNonInviteClient:
		return "non-invite-client"
	}
	return "unknown"
}

// FSMState is a state of one §17 machine. The zero value FInit means the
// machine has not been started (e.g. the client leg before the request is
// forwarded); Step rejects every event in FInit.
type FSMState uint8

// Machine states. Calling is INVITE-client only; Trying is the initial
// state of the non-INVITE machines; Confirmed is INVITE-server only.
const (
	FInit FSMState = iota
	FCalling
	FTrying
	FProceeding
	FCompleted
	FConfirmed
	FTerminated
)

func (s FSMState) String() string {
	switch s {
	case FInit:
		return "init"
	case FCalling:
		return "calling"
	case FTrying:
		return "trying"
	case FProceeding:
		return "proceeding"
	case FCompleted:
		return "completed"
	case FConfirmed:
		return "confirmed"
	case FTerminated:
		return "terminated"
	}
	return "unknown"
}

// Event is an input to Step. Message events are interpreted per machine
// role: for server machines Ev1xx/Ev2xx/Ev300Plus mean "the TU sends this
// response"; for client machines they mean "this response arrived from the
// wire". EvRequest is a retransmission of the original request reaching a
// server machine; EvAck is an ACK reaching the INVITE server machine.
type Event uint8

// Machine events.
const (
	EvRequest Event = iota
	EvAck
	Ev1xx
	Ev2xx
	Ev300Plus
	EvTimerA
	EvTimerB
	EvTimerD
	EvTimerE
	EvTimerF
	EvTimerG
	EvTimerH
	EvTimerI
	EvTimerJ
	EvTimerK
	EvTransportErr
)

func (e Event) String() string {
	switch e {
	case EvRequest:
		return "request"
	case EvAck:
		return "ack"
	case Ev1xx:
		return "1xx"
	case Ev2xx:
		return "2xx"
	case Ev300Plus:
		return "300+"
	case EvTimerA:
		return "timer-a"
	case EvTimerB:
		return "timer-b"
	case EvTimerD:
		return "timer-d"
	case EvTimerE:
		return "timer-e"
	case EvTimerF:
		return "timer-f"
	case EvTimerG:
		return "timer-g"
	case EvTimerH:
		return "timer-h"
	case EvTimerI:
		return "timer-i"
	case EvTimerJ:
		return "timer-j"
	case EvTimerK:
		return "timer-k"
	case EvTransportErr:
		return "transport-error"
	}
	return "unknown"
}

// Action is a bitmask of side effects a transition demands from the layer
// driving the machine. Arm* actions name timers by role, not letter — the
// retransmit cycle is Timer A, E, or G depending on the machine, the
// timeout Timer B, F, or H, and the linger Timer D, I, J, or K.
type Action uint16

// Transition actions.
const (
	// ActPassUp delivers the response to the TU (client machines).
	ActPassUp Action = 1 << iota
	// ActReplay retransmits the last response upstream (server machines).
	ActReplay
	// ActRetransmitReq resends the request downstream (client machines).
	ActRetransmitReq
	// ActRetransmitFinal resends the final response upstream (INVITE server).
	ActRetransmitFinal
	// ActGenACK makes the client generate an ACK for a non-2xx final
	// (§17.1.1.3); fired both on the first final and on retransmitted ones.
	ActGenACK
	// ActTimeoutTU informs the TU the transaction timed out (Timer B/F/H).
	ActTimeoutTU
	// ActArmRetrans (re)arms the retransmit cycle: Timer A, E, or G.
	ActArmRetrans
	// ActArmTimeout arms the transaction timeout: Timer B, F, or H.
	ActArmTimeout
	// ActArmLinger arms the absorb window: Timer D, I, J, or K.
	ActArmLinger
)

// Init returns a machine's initial state and entry actions. Server
// machines start when the request arrives (the INVITE server enters
// Proceeding directly because the TU — this proxy — always answers 100
// Trying immediately); client machines start when the request is sent.
func Init(m Machine) (FSMState, Action) {
	switch m {
	case MachineInviteServer:
		return FProceeding, 0
	case MachineNonInviteServer:
		return FTrying, 0
	case MachineInviteClient:
		return FCalling, ActArmTimeout | ActArmRetrans
	case MachineNonInviteClient:
		return FTrying, ActArmTimeout | ActArmRetrans
	}
	return FInit, 0
}

// Step runs one event through machine m in state s and returns the next
// state, the actions the transition demands, and whether the event is
// defined for that state. ok=false means the event is absorbed with no
// state change (late timers, duplicate messages in terminal states); the
// caller must not act on it.
func Step(m Machine, s FSMState, ev Event) (FSMState, Action, bool) {
	switch m {
	case MachineInviteServer:
		return stepInviteServer(s, ev)
	case MachineNonInviteServer:
		return stepNonInviteServer(s, ev)
	case MachineInviteClient:
		return stepInviteClient(s, ev)
	case MachineNonInviteClient:
		return stepNonInviteClient(s, ev)
	}
	return s, 0, false
}

// stepInviteServer is §17.2.1. The TU's 2xx terminates the machine (the
// ACK for a 2xx is end-to-end); a non-2xx final enters Completed, where the
// final is retransmitted on Timer G until the ACK arrives (Confirmed) or
// Timer H gives up.
func stepInviteServer(s FSMState, ev Event) (FSMState, Action, bool) {
	switch s {
	case FProceeding:
		switch ev {
		case EvRequest:
			return FProceeding, ActReplay, true
		case Ev1xx:
			return FProceeding, 0, true
		case Ev2xx:
			return FTerminated, 0, true
		case Ev300Plus:
			return FCompleted, ActArmTimeout | ActArmRetrans, true
		case EvTransportErr:
			return FTerminated, 0, true
		}
	case FCompleted:
		switch ev {
		case EvRequest:
			return FCompleted, ActReplay, true
		case EvTimerG:
			return FCompleted, ActRetransmitFinal | ActArmRetrans, true
		case EvTimerH:
			return FTerminated, ActTimeoutTU, true
		case EvAck:
			return FConfirmed, ActArmLinger, true
		case EvTransportErr:
			return FTerminated, 0, true
		}
	case FConfirmed:
		switch ev {
		case EvAck:
			return FConfirmed, 0, true
		case EvRequest:
			return FConfirmed, ActReplay, true
		case EvTimerI:
			return FTerminated, 0, true
		}
	}
	return s, 0, false
}

// stepNonInviteServer is §17.2.2: Trying absorbs retransmissions silently
// (no response to replay yet), Proceeding/Completed replay the last one,
// and Timer J bounds the Completed absorb window.
func stepNonInviteServer(s FSMState, ev Event) (FSMState, Action, bool) {
	switch s {
	case FTrying:
		switch ev {
		case EvRequest:
			return FTrying, 0, true
		case Ev1xx:
			return FProceeding, 0, true
		case Ev2xx, Ev300Plus:
			return FCompleted, ActArmLinger, true
		case EvTransportErr:
			return FTerminated, 0, true
		}
	case FProceeding:
		switch ev {
		case EvRequest:
			return FProceeding, ActReplay, true
		case Ev1xx:
			return FProceeding, 0, true
		case Ev2xx, Ev300Plus:
			return FCompleted, ActArmLinger, true
		case EvTransportErr:
			return FTerminated, 0, true
		}
	case FCompleted:
		switch ev {
		case EvRequest:
			return FCompleted, ActReplay, true
		case EvTimerJ:
			return FTerminated, 0, true
		}
	}
	return s, 0, false
}

// stepInviteClient is §17.1.1. A provisional stops request retransmission
// (Calling → Proceeding); a non-2xx final is ACKed by the transaction
// layer itself and Completed re-ACKs retransmitted finals until Timer D.
// Timer B also fires in Proceeding — RFC 3261's proxy Timer C (a bound on
// a downstream that rings forever) collapsed onto the same timer.
func stepInviteClient(s FSMState, ev Event) (FSMState, Action, bool) {
	switch s {
	case FCalling:
		switch ev {
		case EvTimerA:
			return FCalling, ActRetransmitReq | ActArmRetrans, true
		case EvTimerB:
			return FTerminated, ActTimeoutTU, true
		case Ev1xx:
			return FProceeding, ActPassUp, true
		case Ev2xx:
			return FTerminated, ActPassUp, true
		case Ev300Plus:
			return FCompleted, ActPassUp | ActGenACK | ActArmLinger, true
		case EvTransportErr:
			return FTerminated, ActTimeoutTU, true
		}
	case FProceeding:
		switch ev {
		case EvTimerA:
			return FProceeding, 0, true
		case EvTimerB:
			return FTerminated, ActTimeoutTU, true
		case Ev1xx:
			return FProceeding, ActPassUp, true
		case Ev2xx:
			return FTerminated, ActPassUp, true
		case Ev300Plus:
			return FCompleted, ActPassUp | ActGenACK | ActArmLinger, true
		case EvTransportErr:
			return FTerminated, ActTimeoutTU, true
		}
	case FCompleted:
		switch ev {
		case Ev300Plus:
			return FCompleted, ActGenACK, true
		case Ev1xx, Ev2xx:
			return FCompleted, 0, true
		case EvTimerD:
			return FTerminated, 0, true
		}
	}
	return s, 0, false
}

// stepNonInviteClient is §17.1.2. Retransmission continues in Proceeding
// (at the T2 cap); any final — 2xx or not — enters Completed, where Timer K
// absorbs retransmitted finals.
func stepNonInviteClient(s FSMState, ev Event) (FSMState, Action, bool) {
	switch s {
	case FTrying:
		switch ev {
		case EvTimerE:
			return FTrying, ActRetransmitReq | ActArmRetrans, true
		case EvTimerF:
			return FTerminated, ActTimeoutTU, true
		case Ev1xx:
			return FProceeding, ActPassUp, true
		case Ev2xx, Ev300Plus:
			return FCompleted, ActPassUp | ActArmLinger, true
		case EvTransportErr:
			return FTerminated, ActTimeoutTU, true
		}
	case FProceeding:
		switch ev {
		case EvTimerE:
			return FProceeding, ActRetransmitReq | ActArmRetrans, true
		case EvTimerF:
			return FTerminated, ActTimeoutTU, true
		case Ev1xx:
			return FProceeding, ActPassUp, true
		case Ev2xx, Ev300Plus:
			return FCompleted, ActPassUp | ActArmLinger, true
		case EvTransportErr:
			return FTerminated, ActTimeoutTU, true
		}
	case FCompleted:
		switch ev {
		case Ev1xx, Ev2xx, Ev300Plus:
			return FCompleted, 0, true
		case EvTimerK:
			return FTerminated, 0, true
		}
	}
	return s, 0, false
}
