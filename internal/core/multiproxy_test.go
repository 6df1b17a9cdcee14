package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gosip/internal/phone"
	"gosip/internal/transport"
)

// TestTwoProxyChain routes a cross-domain call through a sequence of two
// proxies (§2: "a sequence of SIP proxy and redirection servers"): the
// caller's home proxy (domain a) statically routes b-domain requests to
// the callee's home proxy. The route's domain is in upper case: domains
// match whatever their case.
func TestTwoProxyChain(t *testing.T) {
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		t.Run(string(kind), func(t *testing.T) {
			arch := ArchUDP
			if kind == transport.TCP {
				arch = ArchTCP
			}
			// Callee's home proxy first, so its address is known.
			proxyB, err := New(Config{Arch: arch, Workers: 4, Stateful: true, Domain: "b.dom"})
			if err != nil {
				t.Fatal(err)
			}
			defer proxyB.Close()
			proxyB.DB().ProvisionN(4, "b.dom")

			proxyA, err := New(Config{
				Arch: arch, Workers: 4, Stateful: true, Domain: "a.dom",
				Routes: map[string]string{"B.DOM": proxyB.Addr()},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer proxyA.Close()
			proxyA.DB().ProvisionN(4, "a.dom")

			callee, err := phone.New(phone.Config{
				Transport: kind, ProxyAddr: proxyB.Addr(), Domain: "b.dom", User: "user1",
				ResponseTimeout: 2 * time.Second,
			}, phone.Callee)
			if err != nil {
				t.Fatal(err)
			}
			defer callee.Close()
			if err := callee.Register(); err != nil {
				t.Fatal(err)
			}

			caller, err := phone.New(phone.Config{
				Transport: kind, ProxyAddr: proxyA.Addr(), Domain: "a.dom", User: "user0",
				ResponseTimeout: 2 * time.Second,
			}, phone.Caller)
			if err != nil {
				t.Fatal(err)
			}
			defer caller.Close()
			if err := caller.Register(); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 3; i++ {
				if err := caller.Call("user1@b.dom"); err != nil {
					t.Fatalf("cross-domain call %d: %v", i, err)
				}
			}
			st := caller.Stats()
			if st.CallsCompleted != 3 || st.Ops != 6 {
				t.Errorf("stats = %+v", st)
			}
			// Both proxies participated.
			if proxyA.Profile().Counter("proxy.messages").Value() == 0 ||
				proxyB.Profile().Counter("proxy.messages").Value() == 0 {
				t.Error("a hop processed no messages")
			}
		})
	}
}

// TestUnroutableDomainRejected: a foreign domain with no route entry gets
// 404 from the stateful proxy.
func TestUnroutableDomainRejected(t *testing.T) {
	srv := startServer(t, Config{Arch: ArchUDP, Workers: 2})
	caller, err := phone.New(phone.Config{
		Transport: transport.UDP, ProxyAddr: srv.Addr(), Domain: testDomain, User: "user0",
		ResponseTimeout: 500 * time.Millisecond, MaxRetries: 1,
	}, phone.Caller)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	if err := caller.Register(); err != nil {
		t.Fatal(err)
	}
	err = caller.Call("user1@nowhere.example")
	if err == nil {
		t.Fatal("unroutable call succeeded")
	}
	if caller.Stats().CallsFailed != 1 {
		t.Errorf("stats = %+v", caller.Stats())
	}
}

// TestRecordRouteDialog: with Record-Route enabled, in-dialog requests
// (ACK, BYE) carry Route headers and are routed by them rather than by
// location lookups — the BYE's Request-URI is the callee's contact, which
// only dialog routing can deliver.
func TestRecordRouteDialog(t *testing.T) {
	for _, kind := range []transport.Kind{transport.UDP, transport.TCP} {
		t.Run(string(kind), func(t *testing.T) {
			arch := ArchUDP
			if kind == transport.TCP {
				arch = ArchTCP
			}
			srv := startServer(t, Config{Arch: arch, Workers: 4, RecordRoute: true})
			res := runLoad(t, srv, kind, 3, 4, 0)
			assertClean(t, res, 12)
			// Every ACK and BYE popped our Route entry.
			if got := srv.Profile().Counter("proxy.dialog_routed").Value(); got < int64(2*res.CallsCompleted) {
				t.Errorf("dialog-routed requests = %d, want >= %d (ACK+BYE per call)",
					got, 2*res.CallsCompleted)
			}
		})
	}
}

// TestRecordRouteTwoProxyChain: both proxies record-route; the BYE must
// traverse both via its Route set.
func TestRecordRouteTwoProxyChain(t *testing.T) {
	proxyB, err := New(Config{Arch: ArchUDP, Workers: 4, Stateful: true, Domain: "b.dom", RecordRoute: true})
	if err != nil {
		t.Fatal(err)
	}
	defer proxyB.Close()
	proxyB.DB().ProvisionN(4, "b.dom")

	proxyA, err := New(Config{
		Arch: ArchUDP, Workers: 4, Stateful: true, Domain: "a.dom", RecordRoute: true,
		Routes: map[string]string{"b.dom": proxyB.Addr()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxyA.Close()
	proxyA.DB().ProvisionN(4, "a.dom")

	callee, err := phone.New(phone.Config{
		Transport: transport.UDP, ProxyAddr: proxyB.Addr(), Domain: "b.dom", User: "user1",
		ResponseTimeout: 2 * time.Second,
	}, phone.Callee)
	if err != nil {
		t.Fatal(err)
	}
	defer callee.Close()
	if err := callee.Register(); err != nil {
		t.Fatal(err)
	}
	caller, err := phone.New(phone.Config{
		Transport: transport.UDP, ProxyAddr: proxyA.Addr(), Domain: "a.dom", User: "user0",
		ResponseTimeout: 2 * time.Second,
	}, phone.Caller)
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	if err := caller.Register(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		if err := caller.Call("user1@b.dom"); err != nil {
			t.Fatalf("record-routed cross-domain call %d: %v", i, err)
		}
	}
	// Both hops saw dialog-routed requests (ACK + BYE per call, each hop).
	for name, srv := range map[string]Server{"A": proxyA, "B": proxyB} {
		if got := srv.Profile().Counter("proxy.dialog_routed").Value(); got < 4 {
			t.Errorf("proxy %s dialog-routed %d requests, want >= 4", name, got)
		}
	}
}

// TestRoutesCheckedAtStart pins that a malformed static route fails New
// with the entry named, instead of answering every request to its domain
// 404.
func TestRoutesCheckedAtStart(t *testing.T) {
	for _, routes := range []map[string]string{
		{"b.dom": "host:notaport"},
		{"b.dom": ""},
		{"": "127.0.0.1:5070"},
	} {
		srv, err := New(Config{Arch: ArchUDP, Workers: 1, Domain: "a.dom", Routes: routes})
		if err == nil {
			srv.Close()
			t.Errorf("routes %v accepted", routes)
			continue
		}
		for domain, hop := range routes {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q=%q", domain, hop)) {
				t.Errorf("routes %v: error %q does not name the entry", routes, err)
			}
		}
	}
}
