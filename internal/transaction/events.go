// Typed events between the transport, transaction, and TU layers. The
// transport hands raw messages to the proxy (the TU), the proxy asks the
// transaction layer what a message means for its transaction, and the
// answer comes back as one of these dispositions instead of a bare
// *Message the caller has to re-interpret. Keeping the vocabulary closed
// lets proxy.handleResponse and handleRequest be exhaustive switches and
// lets the race-matrix tests assert on intent, not on side effects.
package transaction

// RespDisposition is the transaction layer's verdict on a downstream
// response, produced by OnClientResponse after stepping the client (and,
// for pass-through finals, the server) state machine.
type RespDisposition uint8

// Response dispositions.
const (
	// RespAbsorb: the response is consumed by the transaction layer —
	// a retransmitted final already answered upstream, a provisional for
	// a terminated transaction, or a stray CANCEL response.
	RespAbsorb RespDisposition = iota
	// RespAbsorb100: a downstream 100 Trying. Hop-by-hop per §16.7 — the
	// proxy generated its own 100 upstream, so this one is absorbed (it
	// still advanced the client machine Calling → Proceeding).
	RespAbsorb100
	// RespPassProvisional: a non-100 provisional to relay upstream.
	RespPassProvisional
	// RespPassFinal: the first final; relay upstream via SendFinal.
	RespPassFinal
	// RespPassFinalAck: the first final, and it is a non-2xx to an INVITE:
	// the transaction layer owns ACKing it downstream (§17.1.1.3) before
	// the relay.
	RespPassFinalAck
	// RespDupFinalAck: a retransmitted non-2xx INVITE final; re-ACK it
	// downstream but do not relay (the upstream replay is Timer G's job).
	RespDupFinalAck
	// RespRelay2xx: a 2xx to an INVITE whose 2xx already went upstream.
	// Relay it to the origin as it is; no state changes and no timer is
	// armed (§16.7: a proxy forwards every 2xx to an INVITE).
	RespRelay2xx
)

func (d RespDisposition) String() string {
	switch d {
	case RespAbsorb:
		return "absorb"
	case RespAbsorb100:
		return "absorb-100"
	case RespPassProvisional:
		return "pass-provisional"
	case RespPassFinal:
		return "pass-final"
	case RespPassFinalAck:
		return "pass-final-ack"
	case RespDupFinalAck:
		return "dup-final-ack"
	case RespRelay2xx:
		return "relay-2xx"
	}
	return "unknown"
}

// AckDisposition is the transaction layer's verdict on an upstream ACK,
// produced by OnAck.
type AckDisposition uint8

// ACK dispositions.
const (
	// AckForward: the ACK acknowledges a 2xx (or matches no INVITE server
	// transaction in Completed) and belongs to the dialog layer — forward
	// it downstream statelessly.
	AckForward AckDisposition = iota
	// AckAbsorbed: the ACK acknowledges our non-2xx final; the INVITE
	// server machine moved Completed → Confirmed and Timer G/H stopped.
	// Nothing is forwarded.
	AckAbsorbed
)

func (d AckDisposition) String() string {
	switch d {
	case AckForward:
		return "forward"
	case AckAbsorbed:
		return "absorbed"
	}
	return "unknown"
}
