package proxy

import (
	"errors"
	"net"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/trace"
	"gosip/internal/transaction"
	"gosip/internal/userdb"
)

// fakeSender records every delivery the engine makes.
type fakeSender struct {
	mu       sync.Mutex
	toOrigin []sentMsg
	toAddr   []sentMsg
	failAddr bool
}

type sentMsg struct {
	origin    any
	transport string
	hostport  string
	msg       *sipmsg.Message
}

func (f *fakeSender) ToOrigin(origin any, m *sipmsg.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.toOrigin = append(f.toOrigin, sentMsg{origin: origin, msg: m})
	return nil
}

func (f *fakeSender) ToBinding(b location.Binding, m *sipmsg.Message) error {
	hp := b.Contact.HostPort()
	return f.ToAddr(b.Transport, hp, m)
}

func (f *fakeSender) ToAddr(transport, hostport string, m *sipmsg.Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAddr {
		return errors.New("fake send failure")
	}
	f.toAddr = append(f.toAddr, sentMsg{transport: transport, hostport: hostport, msg: m})
	return nil
}

func (f *fakeSender) originMsgs() []sentMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sentMsg(nil), f.toOrigin...)
}

func (f *fakeSender) addrMsgs() []sentMsg {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sentMsg(nil), f.toAddr...)
}

type env struct {
	engine *Engine
	loc    *location.Service
	db     *userdb.DB
	txns   *transaction.Table
	timers *timerlist.List
	prof   *metrics.Profile
}

func newEnv(t *testing.T, stateful, reliable bool) *env {
	t.Helper()
	prof := metrics.NewProfile()
	loc := location.New()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(10, "test.dom")
	timers := timerlist.NewManual()
	txns := transaction.NewTable(transaction.Config{T1: 10 * time.Millisecond, TimerB: 50 * time.Millisecond, Linger: time.Hour}, timers, prof)
	cfg := Config{
		Stateful:     stateful,
		Reliable:     reliable,
		ViaTransport: "UDP",
		ViaHost:      "127.0.0.1",
		ViaPort:      5060,
		Domain:       "test.dom",
	}
	e := NewEngine(cfg, loc, db, txns, prof)
	return &env{engine: e, loc: loc, db: db, txns: txns, timers: timers, prof: prof}
}

func (v *env) registerUser(i int, host string, port int) {
	v.loc.Register(userdb.UserName(i)+"@test.dom", location.Binding{
		Contact:   sipmsg.URI{User: userdb.UserName(i), Host: host, Port: port},
		Transport: "UDP",
		Source:    host,
	}, time.Hour, time.Now())
}

func invite(from, to int) *sipmsg.Message {
	return sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.INVITE,
		RequestURI: sipmsg.URI{User: userdb.UserName(to), Host: "test.dom"},
		From:       sipmsg.NameAddr{URI: sipmsg.URI{User: userdb.UserName(from), Host: "test.dom"}, Params: map[string]string{"tag": sipmsg.NewTag()}},
		To:         sipmsg.NameAddr{URI: sipmsg.URI{User: userdb.UserName(to), Host: "test.dom"}},
		CallID:     sipmsg.NewCallID("caller"),
		CSeq:       1,
		Via:        sipmsg.Via{Transport: "UDP", Host: "10.0.0.1", Port: 5071},
	})
}

func TestStatefulInviteFlow(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}

	req := invite(0, 1)
	v.engine.Handle(s, req, "caller-origin")

	// Trying goes back to the caller.
	origins := s.originMsgs()
	if len(origins) != 1 || origins[0].msg.StatusCode != sipmsg.StatusTrying {
		t.Fatalf("expected 100 Trying, got %+v", origins)
	}
	if origins[0].origin != "caller-origin" {
		t.Errorf("Trying origin = %v", origins[0].origin)
	}
	// INVITE forwarded to the callee's contact, Via pushed, Max-Forwards decremented.
	addrs := s.addrMsgs()
	if len(addrs) != 1 {
		t.Fatalf("forwarded %d messages", len(addrs))
	}
	fwd := addrs[0].msg
	if addrs[0].hostport != "10.0.0.2:5072" {
		t.Errorf("forward target = %q", addrs[0].hostport)
	}
	if got := len(fwd.GetAll("Via")); got != 2 {
		t.Errorf("forwarded Via count = %d, want 2", got)
	}
	top, _ := fwd.TopVia()
	if top.Host != "127.0.0.1" || top.Port != 5060 {
		t.Errorf("pushed Via = %+v", top)
	}
	if fwd.MaxForwards(0) != 69 {
		t.Errorf("Max-Forwards = %d", fwd.MaxForwards(0))
	}

	// Callee's 180 comes back keyed on OUR branch; it forwards upstream
	// with our Via popped.
	ringing := sipmsg.NewResponse(fwd, sipmsg.StatusRinging, "callee-tag")
	v.engine.Handle(s, ringing, nil)
	origins = s.originMsgs()
	if len(origins) != 2 || origins[len(origins)-1].msg.StatusCode != sipmsg.StatusRinging {
		t.Fatalf("ringing not forwarded: %+v", origins)
	}
	upResp := origins[len(origins)-1].msg
	if len(upResp.GetAll("Via")) != 1 {
		t.Errorf("Via not popped: %v", upResp.GetAll("Via"))
	}
	if origins[len(origins)-1].origin != "caller-origin" {
		t.Error("response did not return to caller origin")
	}

	// Final 200 completes the transaction.
	ok200 := sipmsg.NewResponse(fwd, sipmsg.StatusOK, "callee-tag")
	v.engine.Handle(s, ok200, nil)
	origins = s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusOK {
		t.Fatal("200 not forwarded")
	}
	k, _ := req.TransactionKey()
	tx := v.txns.Match(k)
	if tx == nil || tx.State() != transaction.StateCompleted {
		t.Errorf("transaction not completed: %v", tx)
	}
}

func TestRetransmittedInviteAbsorbed(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	v.engine.Handle(s, req, "o")
	forwardedBefore := len(s.addrMsgs())

	v.engine.Handle(s, req, "o") // retransmission
	if got := len(s.addrMsgs()); got != forwardedBefore {
		t.Errorf("retransmitted INVITE was re-forwarded (%d -> %d)", forwardedBefore, got)
	}
	// The absorbed retransmit is answered with the last response (Trying).
	origins := s.originMsgs()
	last := origins[len(origins)-1].msg
	if last.StatusCode != sipmsg.StatusTrying {
		t.Errorf("replayed response = %d, want 100", last.StatusCode)
	}
}

func TestUnknownUser404(t *testing.T) {
	v := newEnv(t, true, false)
	s := &fakeSender{}
	req := invite(0, 7) // user7 provisioned but never registered
	v.engine.Handle(s, req, "o")
	origins := s.originMsgs()
	if len(origins) != 2 {
		t.Fatalf("responses = %d, want Trying + 404", len(origins))
	}
	if origins[1].msg.StatusCode != sipmsg.StatusNotFound {
		t.Errorf("status = %d, want 404", origins[1].msg.StatusCode)
	}
}

func TestMaxForwardsExceeded(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	req.Set("Max-Forwards", "0")
	v.engine.Handle(s, req, "o")
	origins := s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusTooManyHops {
		t.Errorf("status = %d, want 483", origins[len(origins)-1].msg.StatusCode)
	}
	if len(s.addrMsgs()) != 0 {
		t.Error("request forwarded despite Max-Forwards 0")
	}
}

func TestForwardFailure503(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{failAddr: true}
	v.engine.Handle(s, invite(0, 1), "o")
	origins := s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusServiceUnavail {
		t.Errorf("status = %d, want 503", origins[len(origins)-1].msg.StatusCode)
	}
}

func TestRegisterFlow(t *testing.T) {
	v := newEnv(t, true, false)
	s := &fakeSender{}
	u := sipmsg.URI{User: userdb.UserName(2), Host: "test.dom"}
	reg := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method:     sipmsg.REGISTER,
		RequestURI: sipmsg.URI{Host: "test.dom"},
		From:       sipmsg.NameAddr{URI: u, Params: map[string]string{"tag": "t"}},
		To:         sipmsg.NameAddr{URI: u},
		CallID:     sipmsg.NewCallID("ph"),
		CSeq:       1,
		Via:        sipmsg.Via{Transport: "UDP", Host: "10.0.0.3", Port: 5073},
		Contact:    &sipmsg.NameAddr{URI: sipmsg.URI{User: userdb.UserName(2), Host: "10.0.0.3", Port: 5073}},
		Expires:    600,
	})
	v.engine.Handle(s, reg, "o")
	origins := s.originMsgs()
	if len(origins) != 1 || origins[0].msg.StatusCode != sipmsg.StatusOK {
		t.Fatalf("register response: %+v", origins)
	}
	if _, err := v.loc.Lookup(userdb.UserName(2)+"@test.dom", time.Now(), nil); err != nil {
		t.Errorf("binding not installed: %v", err)
	}
}

func TestRegisterUnknownUserRejected(t *testing.T) {
	v := newEnv(t, true, false)
	s := &fakeSender{}
	u := sipmsg.URI{User: "stranger", Host: "test.dom"}
	reg := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: "test.dom"},
		From: sipmsg.NameAddr{URI: u, Params: map[string]string{"tag": "t"}}, To: sipmsg.NameAddr{URI: u},
		CallID: sipmsg.NewCallID("ph"), CSeq: 1,
		Via:     sipmsg.Via{Transport: "UDP", Host: "10.0.0.3", Port: 5073},
		Contact: &sipmsg.NameAddr{URI: sipmsg.URI{User: "stranger", Host: "10.0.0.3", Port: 5073}},
	})
	v.engine.Handle(s, reg, "o")
	if got := s.originMsgs()[0].msg.StatusCode; got != sipmsg.StatusNotFound {
		t.Errorf("status = %d, want 404", got)
	}
}

func TestRetransmissionOverUnreliableTransport(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	worker := &fakeSender{}
	timer := &fakeSender{}
	v.engine.SetTimerSender(timer)

	v.engine.Handle(worker, invite(0, 1), "o")
	base := time.Now()
	v.timers.CheckNow(base.Add(15 * time.Millisecond))
	v.timers.CheckNow(base.Add(45 * time.Millisecond))
	if got := len(timer.addrMsgs()); got < 1 {
		t.Errorf("no retransmissions fired (got %d)", got)
	}
	// Timeout: TimerB fires 408 upstream.
	v.timers.CheckNow(base.Add(10 * time.Second))
	found := false
	for _, sm := range timer.originMsgs() {
		if sm.msg.StatusCode == sipmsg.StatusRequestTimeout {
			found = true
		}
	}
	if !found {
		t.Error("408 not generated on TimerB expiry")
	}
}

// TestReliableTransportNeverRetransmits: a reliable engine arms no
// transaction timer even with a timer sender installed, as the sctp
// architecture runs it — no Timer A for an unanswered INVITE, and no Timer G
// for a 486 it relays upstream.
func TestReliableTransportNeverRetransmits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer int // the downstream final, 0 for none
	}{{"unanswered", 0}, {"486", sipmsg.StatusBusyHere}} {
		answer := tc.answer
		t.Run(tc.name, func(t *testing.T) {
			v := newEnv(t, true, true)
			v.registerUser(1, "10.0.0.2", 5072)
			timer := &fakeSender{}
			v.engine.SetTimerSender(timer)
			s := &fakeSender{}
			v.engine.Handle(s, invite(0, 1), "o")
			if answer != 0 {
				fwd := s.addrMsgs()[0].msg
				v.engine.Handle(s, sipmsg.NewResponse(fwd, answer, "callee"), nil)
				if got := s.originMsgs(); got[len(got)-1].msg.StatusCode != answer {
					t.Fatalf("setup: %d not relayed upstream", answer)
				}
			}
			v.timers.CheckNow(time.Now().Add(time.Hour))
			if len(timer.addrMsgs()) != 0 {
				t.Error("TCP transaction retransmitted its request")
			}
			if len(timer.originMsgs()) != 0 {
				t.Error("TCP transaction retransmitted its final")
			}
			if v.prof.Counter(metrics.MetricRetransmits).Value() != 0 {
				t.Error("retransmit counter nonzero")
			}
			if v.prof.Counter(metrics.MetricFinalRetransmits).Value() != 0 {
				t.Error("final retransmit counter nonzero")
			}
		})
	}
}

// TestRetransmissionSpans: with tracing on and a manual clock, a forward
// that Timer A resends leaves a retransmit span on its call's retained
// timeline.
func TestRetransmissionSpans(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	rec := trace.NewRecorder(trace.Config{Sample: 1}, v.prof)
	v.engine.SetTimerSender(&fakeSender{})
	s := &fakeSender{}
	m, err := sipmsg.Parse(wireInvite("span-a"))
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(m, time.Now())
	v.engine.Handle(s, m, "caller")
	m.Release()
	fwd := s.addrMsgs()[0].msg

	v.timers.CheckNow(time.Now().Add(15 * time.Millisecond))
	if v.prof.Counter(metrics.MetricRetransmits).Value() == 0 {
		t.Fatal("setup: Timer A did not retransmit the forward")
	}
	v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusOK, "callee"), nil)

	var got *trace.Trace
	for _, tr := range rec.Snapshot() {
		if tr.CallID == "span-a" && tr.Status == sipmsg.StatusOK {
			got = tr
		}
	}
	if got == nil {
		t.Fatalf("no retained timeline for the call: %+v", rec.Snapshot())
	}
	for _, sp := range got.Spans {
		if sp.Stage == trace.StageRetransmit {
			return
		}
	}
	t.Errorf("no retransmit span on the call's retained timeline: %+v", got.Spans)
}

// TestStatelessForwarding: no Trying, no transaction, and the response
// relays toward the caller. Over UDP that is the caller's Via sent-by and
// the Via travels on byte for byte. Over a stream transport the sent-by
// names the caller's listener, not the connection it sent on, so the
// forward stamps the connection's address on that Via as received/rport and
// the response goes there.
func TestStatelessForwarding(t *testing.T) {
	for _, tc := range []struct {
		transport  string
		origin     any
		wantTarget string
	}{
		{"UDP", netip.MustParseAddrPort("10.0.0.1:5071"), "10.0.0.1:5071"},
		{"TCP", &net.TCPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 40001}, "10.0.0.1:40001"},
	} {
		t.Run(tc.transport, func(t *testing.T) {
			v := newEnv(t, false, tc.transport != "UDP")
			v.engine.cfg.ViaTransport = tc.transport
			v.registerUser(1, "10.0.0.2", 5072)
			s := &fakeSender{}
			req := invite(0, 1)
			callerVia, _ := req.Get("Via")
			v.engine.Handle(s, req, tc.origin)
			if len(s.originMsgs()) != 0 {
				t.Errorf("stateless proxy sent %d responses", len(s.originMsgs()))
			}
			addrs := s.addrMsgs()
			if len(addrs) != 1 {
				t.Fatalf("forwarded %d", len(addrs))
			}
			fwdVia := addrs[0].msg.GetAll("Via")[1]
			if tc.transport == "UDP" {
				if fwdVia != callerVia {
					t.Errorf("caller Via forwarded as %q, want %q", fwdVia, callerVia)
				}
			} else if via, err := sipmsg.ParseVia(fwdVia); err != nil ||
				via.Params["received"] != "10.0.0.1" || via.Params["rport"] != "40001" || via.SentBy() != "10.0.0.1:5071" {
				t.Errorf("caller Via forwarded as %q (%v)", fwdVia, err)
			}
			resp := sipmsg.NewResponse(addrs[0].msg, sipmsg.StatusOK, "g")
			v.engine.Handle(s, resp, nil)
			addrs = s.addrMsgs()
			if got := addrs[len(addrs)-1].hostport; got != tc.wantTarget {
				t.Errorf("stateless response relayed to %q, want %q", got, tc.wantTarget)
			}
			if v.txns.Len() != 0 {
				t.Error("stateless proxy created transactions")
			}
			if got := v.prof.Counter("proxy.drops").Value(); got != 0 {
				t.Errorf("proxy.drops = %d", got)
			}
		})
	}
}

func TestResponseWithoutTransactionDropped(t *testing.T) {
	v := newEnv(t, true, false)
	s := &fakeSender{}
	resp := &sipmsg.Message{StatusCode: 200, Reason: "OK"}
	resp.Add("Via", "SIP/2.0/UDP 127.0.0.1:5060;branch=z9hG4bKnope")
	resp.Add("Via", "SIP/2.0/UDP 10.0.0.1:5071;branch=z9hG4bKcaller")
	resp.Add("CSeq", "1 INVITE")
	resp.Add("From", "<sip:a@x>;tag=1")
	resp.Add("To", "<sip:b@y>;tag=2")
	resp.Add("Call-ID", "x")
	before := v.prof.Counter("proxy.drops").Value()
	v.engine.Handle(s, resp, nil)
	if len(s.originMsgs())+len(s.addrMsgs()) != 0 {
		t.Error("orphan response was forwarded")
	}
	if v.prof.Counter("proxy.drops").Value() != before+1 {
		t.Error("drop not counted")
	}
}

func TestAckForwardedStatelessly(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	ack := invite(0, 1)
	ack.Method = sipmsg.ACK
	ack.Set("CSeq", "1 ACK")
	v.engine.Handle(s, ack, "o")
	addrs := s.addrMsgs()
	if len(addrs) != 1 || addrs[0].msg.Method != sipmsg.ACK {
		t.Fatalf("ACK not forwarded: %+v", addrs)
	}
	if v.txns.Len() != 0 {
		t.Error("ACK created transaction state")
	}
}

func TestCancelWithoutTransaction481(t *testing.T) {
	v := newEnv(t, true, false)
	s := &fakeSender{}
	req := invite(0, 1)
	req.Method = sipmsg.CANCEL
	req.Set("CSeq", "1 CANCEL")
	v.engine.Handle(s, req, "o")
	if got := s.originMsgs()[0].msg.StatusCode; got != sipmsg.StatusTransactionNotFound {
		t.Errorf("status = %d, want 481", got)
	}
}

func TestCancelTerminatesProceedingInvite(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	v.engine.Handle(s, req, "caller")

	cancel := req.Clone()
	cancel.Method = sipmsg.CANCEL
	cancel.Set("CSeq", "1 CANCEL")
	cancel.Body = nil
	v.engine.Handle(s, cancel, "caller")

	var got200, got487, gotDownstreamCancel bool
	for _, sm := range s.originMsgs() {
		if sm.msg.StatusCode == sipmsg.StatusOK {
			if _, method, _ := sm.msg.CSeq(); method == sipmsg.CANCEL {
				got200 = true
			}
		}
		if sm.msg.StatusCode == 487 {
			got487 = true
		}
	}
	for _, sm := range s.addrMsgs() {
		if sm.msg.Method == sipmsg.CANCEL {
			gotDownstreamCancel = true
		}
	}
	if !got200 {
		t.Error("CANCEL not answered with 200")
	}
	if !got487 {
		t.Error("INVITE not terminated with 487")
	}
	if !gotDownstreamCancel {
		t.Error("CANCEL not propagated downstream")
	}
	// A late 200 from the callee is now a duplicate final: dropped.
	fwd := s.addrMsgs()[0].msg
	before := len(s.originMsgs())
	v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusOK, "late"), nil)
	if len(s.originMsgs()) != before {
		t.Error("late 200 forwarded after CANCEL")
	}
}

func TestRedirectMode(t *testing.T) {
	prof := metrics.NewProfile()
	loc := location.New()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(4, "test.dom")
	e := NewEngine(Config{
		Mode: ModeRedirect, Stateful: true,
		ViaTransport: "UDP", ViaHost: "127.0.0.1", ViaPort: 5060, Domain: "test.dom",
	}, loc, db, nil, prof)
	loc.Register(userdb.UserName(1)+"@test.dom", location.Binding{
		Contact: sipmsg.URI{User: userdb.UserName(1), Host: "10.9.9.9", Port: 5099},
	}, time.Hour, time.Now())
	s := &fakeSender{}

	e.Handle(s, invite(0, 1), "o")
	origins := s.originMsgs()
	if len(origins) != 1 || origins[0].msg.StatusCode != 302 {
		t.Fatalf("redirect response: %+v", origins)
	}
	if ct, ok := origins[0].msg.Get("Contact"); !ok || !strings.Contains(ct, "10.9.9.9:5099") {
		t.Errorf("Contact = %q", ct)
	}
	if len(s.addrMsgs()) != 0 {
		t.Error("redirect server forwarded the request")
	}

	// Unknown callee: 404.
	e.Handle(s, invite(0, 3), "o")
	origins = s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusNotFound {
		t.Errorf("unknown user: %d", origins[len(origins)-1].msg.StatusCode)
	}

	// ACK for the 302 is absorbed silently.
	ack := invite(0, 1)
	ack.Method = sipmsg.ACK
	ack.Set("CSeq", "1 ACK")
	before := len(s.originMsgs()) + len(s.addrMsgs())
	e.Handle(s, ack, "o")
	if len(s.originMsgs())+len(s.addrMsgs()) != before {
		t.Error("redirect server responded to ACK")
	}
}

// TestDuplicateFinalResponseDropped: a retransmitted final the transaction
// has already answered upstream with goes no further — a non-2xx INVITE
// final (re-ACKed downstream instead) and a non-INVITE 200 alike. A
// retransmitted INVITE 2xx is the exception (TestRetransmitted2xxRelayed).
func TestDuplicateFinalResponseDropped(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	v.engine.Handle(s, invite(0, 1), "o")
	inv := s.addrMsgs()[0].msg
	busy := sipmsg.NewResponse(inv, sipmsg.StatusBusyHere, "g")
	v.engine.Handle(s, busy, nil)
	upCount := len(s.originMsgs())
	v.engine.Handle(s, busy.Clone(), nil) // duplicate final
	if len(s.originMsgs()) != upCount {
		t.Error("duplicate 486 forwarded twice")
	}

	bye := invite(0, 1)
	bye.Method = sipmsg.BYE
	bye.Set("CSeq", "2 BYE")
	v.engine.Handle(s, bye, "o")
	addrs := s.addrMsgs()
	ok200 := sipmsg.NewResponse(addrs[len(addrs)-1].msg, sipmsg.StatusOK, "g")
	v.engine.Handle(s, ok200, nil)
	upCount = len(s.originMsgs())
	v.engine.Handle(s, ok200.Clone(), nil)
	if len(s.originMsgs()) != upCount {
		t.Error("duplicate BYE 200 forwarded twice")
	}
}

// TestRetransmitted2xxRelayed pins RFC 3261 §16.7 step 1 and §17.1.1.2: a
// 2xx terminates the INVITE client leg, and every retransmission of it
// (the callee resends until the caller's ACK reaches it) is forwarded
// upstream like the first, with our Via popped — without touching the
// lingering transaction, which still replays the first 200 to a
// retransmitted INVITE and arms no timer.
func TestRetransmitted2xxRelayed(t *testing.T) {
	v := newEnv(t, true, false)
	v.engine.SetTimerSender(&fakeSender{}) // the forward arms Timers A and B
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	v.engine.Handle(s, req, "caller")
	fwd := s.addrMsgs()[0].msg
	ok200 := sipmsg.NewResponse(fwd, sipmsg.StatusOK, "callee")
	v.engine.Handle(s, ok200, nil)
	k, _ := req.TransactionKey()
	tx := v.txns.Match(k)
	if tx == nil || tx.State() != transaction.StateCompleted {
		t.Fatalf("setup: transaction not completed: %v", tx)
	}
	timers := v.timers.Len() - int(v.timers.CancelledResident())
	first := s.originMsgs()[len(s.originMsgs())-1].msg

	for i := 0; i < 2; i++ {
		upBefore, downBefore := len(s.originMsgs()), len(s.addrMsgs())
		v.engine.Handle(s, ok200.Clone(), nil)
		origins := s.originMsgs()
		if len(origins) != upBefore+1 {
			t.Fatalf("retransmission %d of the 200 sent %d messages upstream, want 1", i+1, len(origins)-upBefore)
		}
		relayed := origins[len(origins)-1]
		if relayed.origin != "caller" || relayed.msg.StatusCode != sipmsg.StatusOK {
			t.Errorf("relayed %d to %v, want the 200 to the caller", relayed.msg.StatusCode, relayed.origin)
		}
		if got, want := relayed.msg.String(), first.String(); got != want {
			t.Errorf("relayed 200 is\n%s\nwant the first one's text (our Via popped)\n%s", got, want)
		}
		if len(s.addrMsgs()) != downBefore {
			t.Error("a relayed 200 sent something downstream")
		}
	}
	if tx.State() != transaction.StateCompleted || v.txns.Pending() != 0 {
		t.Errorf("relaying changed the transaction: state %v, %d pending", tx.State(), v.txns.Pending())
	}
	if got := v.timers.Len() - int(v.timers.CancelledResident()); got != timers {
		t.Errorf("%d live timers after the relays, %d before", got, timers)
	}
	v.engine.Handle(s, req, "caller")
	origins := s.originMsgs()
	if last := origins[len(origins)-1].msg; last.String() != first.String() {
		t.Errorf("a retransmitted INVITE replayed %d, want the first 200", last.StatusCode)
	}
}

func TestDescribe(t *testing.T) {
	v := newEnv(t, true, false)
	if v.engine.Describe() == "" {
		t.Error("empty description")
	}
}

// TestDownstream100Absorbed pins §16.7: a downstream 100 Trying is
// hop-by-hop and must not be relayed upstream, but it still refreshes the
// transaction's replay response so absorbed retransmits answer with the
// freshest status. Later provisionals relay normally.
func TestDownstream100Absorbed(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	v.engine.Handle(s, req, "o")
	fwd := s.addrMsgs()[0].msg
	upBefore := len(s.originMsgs())
	absorbedBefore := v.prof.Counter("proxy.absorbed").Value()

	v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusTrying, ""), nil)
	if got := len(s.originMsgs()); got != upBefore {
		t.Fatalf("downstream 100 relayed upstream (%d -> %d messages)", upBefore, got)
	}
	if v.prof.Counter("proxy.absorbed").Value() != absorbedBefore+1 {
		t.Error("absorbed 100 not counted")
	}

	// A 180 after the absorbed 100 still relays.
	v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusRinging, "callee"), nil)
	origins := s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusRinging {
		t.Error("180 after absorbed 100 not relayed")
	}
	// And a retransmitted INVITE replays the freshest provisional.
	v.engine.Handle(s, req, "o")
	origins = s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusRinging {
		t.Errorf("retransmit replayed %d, want 180", origins[len(origins)-1].msg.StatusCode)
	}
}

// TestAckForNon2xxAbsorbed pins the §17.2.1 tentpole behavior: the ACK for
// a locally generated non-2xx INVITE final belongs to our server
// transaction and is absorbed, never forwarded.
func TestAckForNon2xxAbsorbed(t *testing.T) {
	v := newEnv(t, true, false)
	s := &fakeSender{}
	req := invite(0, 7) // provisioned but unregistered: 404
	v.engine.Handle(s, req, "o")
	origins := s.originMsgs()
	if origins[len(origins)-1].msg.StatusCode != sipmsg.StatusNotFound {
		t.Fatalf("setup: want 404, got %d", origins[len(origins)-1].msg.StatusCode)
	}

	ack := req.Clone() // §17.1.1.3: ACK for a non-2xx reuses the INVITE branch
	ack.Method = sipmsg.ACK
	ack.Set("CSeq", "1 ACK")
	ack.Body = nil
	absorbedBefore := v.prof.Counter("proxy.absorbed").Value()
	v.engine.Handle(s, ack, "o")
	if len(s.addrMsgs()) != 0 {
		t.Error("ACK for our 404 was forwarded downstream")
	}
	if v.prof.Counter("proxy.absorbed").Value() != absorbedBefore+1 {
		t.Error("absorbed ACK not counted")
	}
}

// TestAckFor200ForwardedAfterNon2xxFlow pairs with the absorb test: an ACK
// for a 2xx carries a fresh branch (its own "transaction" end-to-end) and
// must pass through statelessly even while other transactions are
// absorbing their ACKs.
func TestAckFor200ForwardedAfterNon2xxFlow(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}

	// Complete a call with a 200.
	req := invite(0, 1)
	v.engine.Handle(s, req, "o")
	fwd := s.addrMsgs()[0].msg
	v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusOK, "g"), nil)

	// The dialog-layer ACK uses a new branch (invite() generates one).
	ack := invite(0, 1)
	ack.Method = sipmsg.ACK
	ack.Set("CSeq", "1 ACK")
	downBefore := len(s.addrMsgs())
	v.engine.Handle(s, ack, "o")
	addrs := s.addrMsgs()
	if len(addrs) != downBefore+1 || addrs[len(addrs)-1].msg.Method != sipmsg.ACK {
		t.Fatal("ACK for 2xx not forwarded downstream")
	}
}

// TestTimerGRetransmitsLocalFinal counts messages end to end: a non-2xx
// INVITE final over UDP is retransmitted on Timer G until the ACK arrives,
// after which the cycle stops — the §17.2.1 ACK wait observed at the wire.
func TestTimerGRetransmitsLocalFinal(t *testing.T) {
	v := newEnv(t, true, false)
	timer := &fakeSender{}
	v.engine.SetTimerSender(timer)
	s := &fakeSender{}
	req := invite(0, 7) // unregistered: the proxy answers 404 itself
	v.engine.Handle(s, req, "o")

	count404 := func(msgs []sentMsg) int {
		n := 0
		for _, sm := range msgs {
			if sm.msg.StatusCode == sipmsg.StatusNotFound {
				n++
			}
		}
		return n
	}
	if count404(s.originMsgs()) != 1 {
		t.Fatal("setup: no 404 sent")
	}

	// Timer G fires at T1 then doubles: 10ms, 30ms, 70ms with T1=10ms.
	base := time.Now()
	v.timers.CheckNow(base.Add(15 * time.Millisecond))
	v.timers.CheckNow(base.Add(35 * time.Millisecond))
	v.timers.CheckNow(base.Add(75 * time.Millisecond))
	retrans := count404(timer.originMsgs())
	if retrans < 2 {
		t.Fatalf("Timer G retransmitted the 404 %d times, want >= 2", retrans)
	}
	if v.prof.Counter(metrics.MetricFinalRetransmits).Value() != int64(retrans) {
		t.Errorf("final retransmit counter = %d, want %d",
			v.prof.Counter(metrics.MetricFinalRetransmits).Value(), retrans)
	}

	// The ACK confirms the final and stops the cycle.
	ack := req.Clone()
	ack.Method = sipmsg.ACK
	ack.Set("CSeq", "1 ACK")
	v.engine.Handle(s, ack, "o")
	v.timers.CheckNow(base.Add(500 * time.Millisecond))
	if got := count404(timer.originMsgs()); got != retrans {
		t.Errorf("final retransmitted after ACK (%d -> %d)", retrans, got)
	}
}

// TestTimerHStopsUnackedFinal: with no ACK ever arriving, Timer H abandons
// the retransmission cycle and tears the transaction down.
func TestTimerHStopsUnackedFinal(t *testing.T) {
	v := newEnv(t, true, false)
	timer := &fakeSender{}
	v.engine.SetTimerSender(timer)
	s := &fakeSender{}
	req := invite(0, 7)
	v.engine.Handle(s, req, "o")
	k, _ := req.TransactionKey()
	if v.txns.Match(k) == nil {
		t.Fatal("setup: no transaction")
	}
	// TimerH defaults to 64*T1 = 640ms with the env's T1=10ms.
	v.timers.CheckNow(time.Now().Add(10 * time.Second))
	if v.txns.Match(k) != nil {
		t.Error("transaction survived Timer H")
	}
}

// TestCancelCloneWellFormed pins the §9.1 CANCEL derivation: no body, no
// body-describing headers, no Record-Route, a single Via with the
// forwarded INVITE's branch, and the INVITE's CSeq number.
func TestCancelCloneWellFormed(t *testing.T) {
	prof := metrics.NewProfile()
	loc := location.New()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(10, "test.dom")
	timers := timerlist.NewManual()
	txns := transaction.NewTable(transaction.Config{}, timers, prof)
	e := NewEngine(Config{
		Stateful: true, RecordRoute: true,
		ViaTransport: "UDP", ViaHost: "127.0.0.1", ViaPort: 5060, Domain: "test.dom",
	}, loc, db, txns, prof)
	loc.Register(userdb.UserName(1)+"@test.dom", location.Binding{
		Contact:   sipmsg.URI{User: userdb.UserName(1), Host: "10.0.0.2", Port: 5072},
		Transport: "UDP", Source: "10.0.0.2",
	}, time.Hour, time.Now())
	s := &fakeSender{}

	req := invite(0, 1)
	req.Body = []byte("v=0 o=sdp")
	req.Set("Content-Type", "application/sdp")
	e.Handle(s, req, "o")
	fwd := s.addrMsgs()[0].msg
	if _, ok := fwd.Get("Record-Route"); !ok {
		t.Fatal("setup: forwarded INVITE has no Record-Route")
	}

	cancel := req.Clone()
	cancel.Method = sipmsg.CANCEL
	cancel.Set("CSeq", "1 CANCEL")
	cancel.Body = nil
	e.Handle(s, cancel, "o")

	var down *sipmsg.Message
	for _, sm := range s.addrMsgs() {
		if sm.msg.Method == sipmsg.CANCEL {
			down = sm.msg
		}
	}
	if down == nil {
		t.Fatal("no downstream CANCEL")
	}
	if len(down.Body) != 0 {
		t.Error("CANCEL carries a body")
	}
	if _, ok := down.Get("Content-Type"); ok {
		t.Error("CANCEL carries Content-Type")
	}
	if _, ok := down.Get("Record-Route"); ok {
		t.Error("CANCEL carries the INVITE's Record-Route")
	}
	if got := len(down.GetAll("Via")); got != 1 {
		t.Errorf("CANCEL has %d Vias, want 1", got)
	}
	fwdTop, _ := fwd.TopVia()
	cTop, err := down.TopVia()
	if err != nil || cTop.Branch() != fwdTop.Branch() {
		t.Errorf("CANCEL branch = %q, want the forwarded INVITE's %q", cTop.Branch(), fwdTop.Branch())
	}
	if seq, method, _ := down.CSeq(); seq != 1 || method != sipmsg.CANCEL {
		t.Errorf("CANCEL CSeq = %d %s, want 1 CANCEL", seq, method)
	}
}

// TestCancelAgainstCompletedTransaction: §9.2 — the CANCEL transaction
// still answers 200 when the INVITE already has its final, but nothing is
// cancelled and no second final goes upstream.
func TestCancelAgainstCompletedTransaction(t *testing.T) {
	v := newEnv(t, true, false)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	v.engine.Handle(s, req, "o")
	fwd := s.addrMsgs()[0].msg
	v.engine.Handle(s, sipmsg.NewResponse(fwd, sipmsg.StatusBusyHere, "g"), nil)
	upBefore := len(s.originMsgs())
	downBefore := len(s.addrMsgs())

	cancel := req.Clone()
	cancel.Method = sipmsg.CANCEL
	cancel.Set("CSeq", "1 CANCEL")
	cancel.Body = nil
	v.engine.Handle(s, cancel, "o")

	origins := s.originMsgs()
	if len(origins) != upBefore+1 {
		t.Fatalf("CANCEL produced %d upstream messages, want exactly the 200", len(origins)-upBefore)
	}
	last := origins[len(origins)-1].msg
	if _, method, _ := last.CSeq(); last.StatusCode != sipmsg.StatusOK || method != sipmsg.CANCEL {
		t.Errorf("CANCEL answered %d %s, want 200 CANCEL", last.StatusCode, method)
	}
	if len(s.addrMsgs()) != downBefore {
		t.Error("CANCEL propagated downstream despite completed INVITE")
	}
}
