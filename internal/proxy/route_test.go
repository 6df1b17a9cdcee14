package proxy

import (
	"strings"
	"testing"
	"time"

	"gosip/internal/location"
	"gosip/internal/metrics"
	"gosip/internal/sipmsg"
	"gosip/internal/timerlist"
	"gosip/internal/transaction"
	"gosip/internal/userdb"
)

// newRoutingEnv builds an engine with Record-Route on and a static route.
func newRoutingEnv(t *testing.T) *env {
	t.Helper()
	prof := metrics.NewProfile()
	loc := location.New()
	db := userdb.New(userdb.Config{}, prof)
	db.ProvisionN(10, "test.dom")
	timers := timerlist.NewManual()
	txns := transaction.NewTable(transaction.Config{Linger: time.Hour}, timers, prof)
	e := NewEngine(Config{
		Stateful: true, Reliable: true,
		ViaTransport: "UDP", ViaHost: "127.0.0.1", ViaPort: 5060,
		Domain:      "test.dom",
		Routes:      map[string]sipmsg.URI{"b.dom": {Host: "10.8.8.8", Port: 5070}},
		RecordRoute: true,
	}, loc, db, txns, prof)
	return &env{engine: e, loc: loc, db: db, txns: txns, timers: timers, prof: prof}
}

func TestRecordRouteInsertedOnInvite(t *testing.T) {
	v := newRoutingEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	v.engine.Handle(s, invite(0, 1), "o")
	fwd := s.addrMsgs()[0].msg
	rr, ok := fwd.Get("Record-Route")
	if !ok {
		t.Fatal("no Record-Route on forwarded INVITE")
	}
	if !strings.Contains(rr, "127.0.0.1:5060") || !strings.Contains(rr, "lr") {
		t.Errorf("Record-Route = %q", rr)
	}
	// BYE (non-dialog-forming) gets no Record-Route.
	bye := invite(0, 1)
	bye.Method = sipmsg.BYE
	bye.Set("CSeq", "2 BYE")
	v.engine.Handle(s, bye, "o")
	byeFwd := s.addrMsgs()[len(s.addrMsgs())-1].msg
	if _, ok := byeFwd.Get("Record-Route"); ok {
		t.Error("Record-Route on forwarded BYE")
	}
}

func TestRouteHeaderDrivesNextHop(t *testing.T) {
	v := newRoutingEnv(t)
	s := &fakeSender{}
	// A request routed through us toward a second proxy: Route lists us
	// then the other hop; Request-URI is the remote target.
	req := invite(0, 1)
	req.RequestURI = sipmsg.URI{User: "callee", Host: "10.7.7.7", Port: 5099}
	req.Set("CSeq", "2 BYE")
	req.Method = sipmsg.BYE
	req.Add("Route", "<sip:127.0.0.1:5060;lr>")
	req.Add("Route", "<sip:10.6.6.6:5061;lr>")
	v.engine.Handle(s, req, "o")

	addrs := s.addrMsgs()
	if len(addrs) != 1 {
		t.Fatalf("forwarded %d messages (responses: %+v)", len(addrs), s.originMsgs())
	}
	if addrs[0].hostport != "10.6.6.6:5061" {
		t.Errorf("next hop = %q, want the remaining Route", addrs[0].hostport)
	}
	fwd := addrs[0].msg
	routes := fwd.GetAll("Route")
	if len(routes) != 1 || !strings.Contains(routes[0], "10.6.6.6") {
		t.Errorf("forwarded Route set = %v (ours must be popped)", routes)
	}
}

func TestDialogRoutedFinalHopDeliversToRequestURI(t *testing.T) {
	v := newRoutingEnv(t)
	s := &fakeSender{}
	req := invite(0, 1)
	req.Method = sipmsg.BYE
	req.Set("CSeq", "2 BYE")
	req.RequestURI = sipmsg.URI{User: "callee", Host: "10.7.7.7", Port: 5099}
	req.Add("Route", "<sip:127.0.0.1:5060;lr>") // only us
	v.engine.Handle(s, req, "o")
	addrs := s.addrMsgs()
	if len(addrs) != 1 {
		t.Fatalf("forwarded %d messages", len(addrs))
	}
	if addrs[0].hostport != "10.7.7.7:5099" {
		t.Errorf("final hop = %q, want the Request-URI host:port", addrs[0].hostport)
	}
	if v.prof.Counter("proxy.dialog_routed").Value() != 1 {
		t.Error("dialog_routed not counted")
	}
}

func TestForeignURIWithoutRouteStill404(t *testing.T) {
	// Without a Route header through us, a foreign Request-URI with no
	// static route must NOT be relayed (no open relay): 404.
	v := newRoutingEnv(t)
	s := &fakeSender{}
	req := invite(0, 1)
	req.RequestURI = sipmsg.URI{User: "x", Host: "elsewhere.example", Port: 5060}
	v.engine.Handle(s, req, "o")
	origins := s.originMsgs()
	if got := origins[len(origins)-1].msg.StatusCode; got != sipmsg.StatusNotFound {
		t.Errorf("status = %d, want 404", got)
	}
	if len(s.addrMsgs()) != 0 {
		t.Error("foreign URI relayed without authorization")
	}
}

func TestStaticRouteResolution(t *testing.T) {
	v := newRoutingEnv(t)
	s := &fakeSender{}
	req := invite(0, 1)
	req.RequestURI = sipmsg.URI{User: "bob", Host: "b.dom"}
	v.engine.Handle(s, req, "o")
	addrs := s.addrMsgs()
	if len(addrs) != 1 || addrs[0].hostport != "10.8.8.8:5070" {
		t.Fatalf("static route not used: %+v", addrs)
	}
}

func TestForeignRouteHeaderNotPopped(t *testing.T) {
	// A top Route naming someone else is not ours to pop; it drives the
	// next hop unchanged.
	v := newRoutingEnv(t)
	s := &fakeSender{}
	req := invite(0, 1)
	req.Method = sipmsg.BYE
	req.Set("CSeq", "2 BYE")
	req.Add("Route", "<sip:10.5.5.5:5062;lr>")
	v.engine.Handle(s, req, "o")
	addrs := s.addrMsgs()
	if len(addrs) != 1 || addrs[0].hostport != "10.5.5.5:5062" {
		t.Fatalf("foreign route hop = %+v", addrs)
	}
	if got := addrs[0].msg.GetAll("Route"); len(got) != 1 {
		t.Errorf("foreign Route popped: %v", got)
	}
	if v.prof.Counter("proxy.dialog_routed").Value() != 0 {
		t.Error("foreign route counted as ours")
	}
}
