package proxy

import (
	"strings"
	"sync"
	"testing"
	"time"

	"gosip/internal/location"
	"gosip/internal/sipmsg"
	"gosip/internal/trace"
)

// strictSender holds the engine to the Sender ownership rule: whatever it is
// handed must be a built message. It keeps every pointer, as bench/layers'
// capture sender and this package's fakeSender do, without Retain.
type strictSender struct {
	t    *testing.T
	mu   sync.Mutex
	sent []*sipmsg.Message // in send order
}

func (s *strictSender) take(m *sipmsg.Message) error {
	if m.Pooled() {
		s.t.Errorf("a pooled message reached the Sender:\n%s", m)
	}
	s.mu.Lock()
	s.sent = append(s.sent, m)
	s.mu.Unlock()
	return nil
}

func (s *strictSender) ToOrigin(_ any, m *sipmsg.Message) error               { return s.take(m) }
func (s *strictSender) ToBinding(_ location.Binding, m *sipmsg.Message) error { return s.take(m) }
func (s *strictSender) ToAddr(_, _ string, m *sipmsg.Message) error           { return s.take(m) }

// lastDown returns the newest request sent (requests only go downstream)
// with the given method.
func (s *strictSender) lastDown(method sipmsg.Method) *sipmsg.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.sent) - 1; i >= 0; i-- {
		if s.sent[i].IsRequest && s.sent[i].Method == method {
			return s.sent[i]
		}
	}
	s.t.Fatalf("no %s was sent downstream", method)
	return nil
}

// TestSenderNeverSeesPooledMessage drives every path that sends — forward,
// relay, replay, local finals, the transaction layer's own ACK and CANCEL,
// timer retransmissions, stateless relaying, REGISTER — with parsed, pooled
// input released the way a receive loop releases it, and then reads every
// message the sender was handed once more: a pooled one would have been
// recycled under it by then.
func TestSenderNeverSeesPooledMessage(t *testing.T) {
	idle := sipmsg.PoolOutstanding()
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &strictSender{t: t}
	v.engine.SetTimerSender(s)
	feed := func(wire string) {
		t.Helper()
		m, err := sipmsg.Parse([]byte(wire))
		if err != nil {
			t.Fatalf("%v\n%s", err, wire)
		}
		v.engine.Handle(s, m, "caller")
		m.Release()
	}
	request := func(method sipmsg.Method, call string) string { return string(wireRequest(method, call)) }
	response := func(status string, of *sipmsg.Message) string {
		var b strings.Builder
		b.WriteString("SIP/2.0 " + status + "\r\n")
		for _, h := range of.Headers {
			switch h.Name {
			case "Via", "From", "Call-ID", "CSeq":
				b.WriteString(h.Name + ": " + h.Value + "\r\n")
			case "To":
				b.WriteString("To: " + h.Value + ";tag=callee\r\n")
			}
		}
		b.WriteString("Content-Length: 0\r\n\r\n")
		return b.String()
	}

	// A call that is answered, with a retransmitted INVITE replayed on the way.
	feed(request(sipmsg.INVITE, "own-a"))
	feed(request(sipmsg.INVITE, "own-a"))
	inv := s.lastDown(sipmsg.INVITE)
	feed(response("180 Ringing", inv))
	feed(response("200 OK", inv))
	feed(request(sipmsg.INVITE, "own-a")) // replayed from linger
	feed(request(sipmsg.ACK, "own-a-ack"))
	feed(request(sipmsg.BYE, "own-a-bye"))
	feed(response("200 OK", s.lastDown(sipmsg.BYE)))

	// A call the callee refuses: ACK downstream, 486 upstream, Timer G.
	feed(request(sipmsg.INVITE, "own-b"))
	busy := response("486 Busy Here", s.lastDown(sipmsg.INVITE))
	feed(busy)
	feed(busy) // retransmitted final: re-ACKed
	feed(request(sipmsg.ACK, "own-b"))

	// A cancelled call: 200 for the CANCEL, 487, CANCEL downstream.
	feed(request(sipmsg.INVITE, "own-c"))
	feed(request(sipmsg.CANCEL, "own-c"))

	// Local finals, one left to its timers: 404, 483, then Timer A
	// retransmissions and Timer B's 408 for an INVITE nobody answers.
	feed(strings.Replace(request(sipmsg.INVITE, "own-d"), "user1@", "nobody@", 2))
	feed(strings.Replace(request(sipmsg.INVITE, "own-e"), "Max-Forwards: 70", "Max-Forwards: 0", 1))
	feed(request(sipmsg.INVITE, "own-f"))
	v.timers.CheckNow(time.Now().Add(45 * time.Millisecond)) // Timer A, twice
	v.timers.CheckNow(time.Now().Add(time.Second))           // Timer B, then Timer G of the finals

	// REGISTER, and what the stateless engine does with the same traffic.
	feed("REGISTER sip:test.dom SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.1:5071;branch=z9hG4bKown-r\r\n" +
		"From: <sip:user0@test.dom>;tag=r\r\nTo: <sip:user0@test.dom>\r\nCall-ID: own-r\r\nCSeq: 1 REGISTER\r\n" +
		"Contact: <sip:user0@10.0.0.1:5071>\r\nExpires: 60\r\nContent-Length: 0\r\n\r\n")
	stateless := newEnv(t, false, false)
	stateless.registerUser(1, "10.0.0.2", 5072)
	v = stateless
	feed(request(sipmsg.INVITE, "own-s"))
	feed(response("200 OK", s.lastDown(sipmsg.INVITE)))

	if len(s.sent) < 30 {
		t.Fatalf("only %d messages sent: the scenarios did not run", len(s.sent))
	}
	// Churn the pool, then read everything the sender kept.
	for i := 0; i < 64; i++ {
		if m, err := sipmsg.Parse(wireInvite("poison")); err == nil {
			defer m.Release()
		}
	}
	for i, m := range s.sent {
		if call := m.CallID(); !strings.HasPrefix(call, "own-") {
			t.Errorf("message %d, kept by the sender, now reads Call-ID %q:\n%s", i, call, m)
		}
	}
	// What is still out are the churn's 64 and the requests of the two
	// INVITE transactions still in their non-2xx final's absorb window:
	// own-b (486, ACKed, until Timer D) and own-f (its 408 just sent). Timer
	// H gave up on the 487, the 404 and the 483, and terminated them.
	if got, want := sipmsg.PoolOutstanding()-idle, int64(64+2); got != want {
		t.Errorf("%d pooled messages outstanding, want %d", got, want)
	}
}

// TestTimelineOutlivesPooledRequest: a traced request that creates a
// transaction hands its timeline to the transaction. The request goes back
// to the pool at the final — and its Message is parsed into again — while
// the timeline keeps recording the call it was started for: the final's
// relay lands on it, it is retained under the right Call-ID, and a replay
// during linger records on it harmlessly instead of on whatever call the
// recycled message carries now.
func TestTimelineOutlivesPooledRequest(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	rec := trace.NewRecorder(trace.Config{Sample: 1}, v.prof)
	s := &strictSender{t: t}
	idle := sipmsg.PoolOutstanding()
	feed := func(wire []byte) {
		t.Helper()
		t0 := time.Now()
		m, err := sipmsg.Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		if m.IsRequest {
			rec.Start(m, t0)
		}
		v.engine.Handle(s, m, "caller")
		m.Release()
	}
	feed(wireInvite("traced"))
	feed(wireOK("traced", s.lastDown(sipmsg.INVITE).Headers[0].Value))
	if got := sipmsg.PoolOutstanding(); got != idle {
		t.Fatalf("%d pooled messages outstanding after the final, idle was %d", got, idle)
	}
	feed(wireInvite("other"))  // reuses the pooled Message the traced INVITE lived in
	feed(wireInvite("traced")) // retransmission, replayed from linger

	var got *trace.Trace
	for _, tr := range rec.Snapshot() {
		if tr.CallID == "traced" && tr.Status == sipmsg.StatusOK {
			got = tr
		}
	}
	if got == nil {
		t.Fatalf("no retained timeline for the traced call: %+v", rec.Snapshot())
	}
	for _, stage := range []trace.Stage{trace.StageTxn, trace.StageSend, trace.StageWaitDown, trace.StageState} {
		if got.StageTotal(stage) <= 0 {
			t.Errorf("timeline has no %v span: %+v", stage, got.Spans)
		}
	}
}
