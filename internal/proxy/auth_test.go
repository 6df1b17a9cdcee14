package proxy

import (
	"fmt"
	"strings"
	"testing"

	"gosip/internal/sipmsg"
	"gosip/internal/userdb"
)

func TestDigestResponseKnownVector(t *testing.T) {
	// RFC 2617 §3.5 example (no qop): user "Mufasa", realm
	// "testrealm@host.com", password "Circle Of Life", nonce
	// "dcd98b7102dd2f0e8b11d0f600bfb0c093", GET /dir/index.html.
	got := DigestResponse("Mufasa", "testrealm@host.com", "Circle Of Life",
		"dcd98b7102dd2f0e8b11d0f600bfb0c093", "GET", "/dir/index.html")
	if got != "670fd8c2df070c60b045671b8b24ff02" {
		t.Errorf("digest = %q, want RFC 2617 example value", got)
	}
}

func TestDigestNonceDeterministic(t *testing.T) {
	if DigestNonce("call-1") != DigestNonce("call-1") {
		t.Error("nonce not deterministic")
	}
	if DigestNonce("call-1") == DigestNonce("call-2") {
		t.Error("nonce does not depend on Call-ID")
	}
}

func TestCredentialsRoundTrip(t *testing.T) {
	in := Credentials{
		Username: "user7",
		Realm:    "test.dom",
		Nonce:    "abc123",
		URI:      "sip:user8@test.dom",
		Response: "deadbeef",
	}
	out, err := ParseCredentials(in.Format())
	if err != nil {
		t.Fatalf("ParseCredentials: %v", err)
	}
	if out != in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
}

func TestParseCredentialsErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"Basic dXNlcjpwYXNz",
		`Digest realm="x"`, // missing username/nonce/response
	} {
		if _, err := ParseCredentials(bad); err == nil {
			t.Errorf("ParseCredentials(%q) succeeded", bad)
		}
	}
}

func TestParseChallenge(t *testing.T) {
	realm, nonce, err := ParseChallenge(FormatChallenge("r.example", "n-123"))
	if err != nil {
		t.Fatal(err)
	}
	if realm != "r.example" || nonce != "n-123" {
		t.Errorf("got %q %q", realm, nonce)
	}
	if _, _, err := ParseChallenge("Basic foo"); err == nil {
		t.Error("non-digest accepted")
	}
	if _, _, err := ParseChallenge(`Digest realm="x"`); err == nil {
		t.Error("missing nonce accepted")
	}
}

// TestSplitAuthParamsQuotedCommas: a comma inside a quoted value does not
// end the parameter.
func TestSplitAuthParamsQuotedCommas(t *testing.T) {
	c, err := ParseCredentials(`Digest username="a,b", nonce="n", response="r"`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Username != "a,b" || c.Nonce != "n" || c.Response != "r" {
		t.Errorf("quoted comma split: %+v", c)
	}
}

// TestDigestSchemeCaseAndLWS: the scheme is a case-insensitive token and
// any linear white space may follow it (RFC 3261 §25.1), so none of these
// may be refused as "not a Digest" value.
func TestDigestSchemeCaseAndLWS(t *testing.T) {
	for _, scheme := range []string{"digest ", "DIGEST ", "Digest\t", "dIgEsT \t "} {
		c, err := ParseCredentials(scheme + `username="u", nonce="n", response="r"`)
		if err != nil || c.Username != "u" || c.Nonce != "n" || c.Response != "r" {
			t.Errorf("ParseCredentials(%q...) = %+v, %v", scheme, c, err)
		}
		realm, nonce, err := ParseChallenge(scheme + `realm="r.example", nonce="n-1"`)
		if err != nil || realm != "r.example" || nonce != "n-1" {
			t.Errorf("ParseChallenge(%q...) = %q, %q, %v", scheme, realm, nonce, err)
		}
	}
	for _, bad := range []string{"Digestusername=\"u\"", "Digests username=\"u\"", "Digest", "Diges"} {
		if _, _, err := ParseChallenge(bad); err == nil {
			t.Errorf("ParseChallenge(%q) accepted", bad)
		}
	}
}

// TestLowercaseSchemeRegisters: a registration whose credentials spell the
// scheme in lower case is answered 200, not challenged again.
func TestLowercaseSchemeRegisters(t *testing.T) {
	v := authEnv(t)
	s := &fakeSender{}
	u := sipmsg.URI{User: userdb.UserName(2), Host: "test.dom"}
	reg := authorizedRequest(sipmsg.NewRequest(sipmsg.RequestSpec{
		Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: "test.dom"},
		From: sipmsg.NameAddr{URI: u, Params: map[string]string{"tag": "t"}}, To: sipmsg.NameAddr{URI: u},
		CallID: sipmsg.NewCallID("ph"), CSeq: 1,
		Via:     sipmsg.Via{Transport: "UDP", Host: "10.0.0.3", Port: 5073},
		Contact: &sipmsg.NameAddr{URI: sipmsg.URI{User: userdb.UserName(2), Host: "10.0.0.3", Port: 5073}},
	}), userdb.UserName(2))
	creds, _ := reg.Get("Authorization")
	reg.Set("Authorization", "digest\t"+strings.TrimPrefix(creds, "Digest "))
	v.engine.Handle(s, reg, "o")
	if got := s.originMsgs()[0].msg.StatusCode; got != sipmsg.StatusOK {
		t.Errorf("lowercase scheme: status = %d, want 200", got)
	}
}

// TestChallengeBytes: the challenge is the bytes fmt's %q quoting rendered
// for a token-character realm, and the engine sends exactly FormatChallenge
// of its domain and the request's nonce.
func TestChallengeBytes(t *testing.T) {
	for _, realm := range []string{"test.dom", "bench.gosip", "a-b_c.example", "x"} {
		nonce := DigestNonce("call-" + realm)
		want := fmt.Sprintf(`Digest realm=%q, nonce=%q, algorithm=MD5`, realm, nonce)
		if got := FormatChallenge(realm, nonce); got != want {
			t.Errorf("FormatChallenge = %q, want %q", got, want)
		}
	}
	c := Credentials{Username: "user7", Realm: "test.dom", Nonce: "abc", URI: "sip:test.dom", Response: "0f"}
	want := fmt.Sprintf(`Digest username=%q, realm=%q, nonce=%q, uri=%q, response=%q, algorithm=MD5`,
		c.Username, c.Realm, c.Nonce, c.URI, c.Response)
	if got := c.Format(); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}

	v := authEnv(t)
	s := &fakeSender{}
	req := invite(0, 1)
	v.engine.Handle(s, req, "o")
	got, _ := s.originMsgs()[0].msg.Get("Proxy-Authenticate")
	if want := FormatChallenge("test.dom", DigestNonce(req.CallID())); got != want {
		t.Errorf("407 challenge = %q, want %q", got, want)
	}
}

// authEnv builds an engine with auth enabled.
func authEnv(t *testing.T) *env {
	t.Helper()
	v := newEnv(t, true, false)
	cfg := v.engine.cfg
	cfg.Auth = true
	v.engine = NewEngine(cfg, v.loc, v.db, v.txns, v.prof)
	return v
}

// authorizedRequest equips req with valid Digest credentials the way a
// phone would after a challenge.
func authorizedRequest(req *sipmsg.Message, user string) *sipmsg.Message {
	m := req.Clone()
	header := "Proxy-Authorization"
	if m.Method == sipmsg.REGISTER {
		header = "Authorization"
	}
	nonce := DigestNonce(m.CallID())
	uri := m.RequestURI.String()
	creds := Credentials{
		Username: user,
		Realm:    "test.dom",
		Nonce:    nonce,
		URI:      uri,
		Response: DigestResponse(user, "test.dom", userdb.PasswordFor(user), nonce, string(m.Method), uri),
	}
	m.Set(header, creds.Format())
	return m
}

func TestUnauthenticatedInviteChallenged(t *testing.T) {
	v := authEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	v.engine.Handle(s, invite(0, 1), "o")
	origins := s.originMsgs()
	if len(origins) != 1 || origins[0].msg.StatusCode != 407 {
		t.Fatalf("expected 407, got %+v", origins)
	}
	if _, ok := origins[0].msg.Get("Proxy-Authenticate"); !ok {
		t.Error("407 lacks Proxy-Authenticate")
	}
	if len(s.addrMsgs()) != 0 {
		t.Error("unauthenticated request forwarded")
	}
}

func TestAuthorizedInviteForwarded(t *testing.T) {
	v := authEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := authorizedRequest(invite(0, 1), userdb.UserName(0))
	v.engine.Handle(s, req, "o")
	if len(s.addrMsgs()) != 1 {
		t.Fatalf("authorized INVITE not forwarded (responses: %+v)", s.originMsgs())
	}
	// Trying precedes the forward as usual.
	if s.originMsgs()[0].msg.StatusCode != sipmsg.StatusTrying {
		t.Errorf("first response = %d", s.originMsgs()[0].msg.StatusCode)
	}
}

func TestWrongPasswordRejected(t *testing.T) {
	v := authEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	nonce := DigestNonce(req.CallID())
	uri := req.RequestURI.String()
	creds := Credentials{
		Username: userdb.UserName(0), Realm: "test.dom", Nonce: nonce, URI: uri,
		Response: DigestResponse(userdb.UserName(0), "test.dom", "wrong-password", nonce, "INVITE", uri),
	}
	req.Set("Proxy-Authorization", creds.Format())
	v.engine.Handle(s, req, "o")
	if got := s.originMsgs()[0].msg.StatusCode; got != 407 {
		t.Errorf("wrong password: status = %d, want re-challenge 407", got)
	}
}

func TestStaleNonceRejected(t *testing.T) {
	v := authEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	req := invite(0, 1)
	uri := req.RequestURI.String()
	wrongNonce := DigestNonce("some-other-call")
	creds := Credentials{
		Username: userdb.UserName(0), Realm: "test.dom", Nonce: wrongNonce, URI: uri,
		Response: DigestResponse(userdb.UserName(0), "test.dom", userdb.PasswordFor(userdb.UserName(0)), wrongNonce, "INVITE", uri),
	}
	req.Set("Proxy-Authorization", creds.Format())
	v.engine.Handle(s, req, "o")
	if got := s.originMsgs()[0].msg.StatusCode; got != 407 {
		t.Errorf("stale nonce: status = %d, want 407", got)
	}
}

func TestRegisterChallengedWith401(t *testing.T) {
	v := authEnv(t)
	s := &fakeSender{}
	u := sipmsg.URI{User: userdb.UserName(2), Host: "test.dom"}
	reg := sipmsg.NewRequest(sipmsg.RequestSpec{
		Method: sipmsg.REGISTER, RequestURI: sipmsg.URI{Host: "test.dom"},
		From: sipmsg.NameAddr{URI: u, Params: map[string]string{"tag": "t"}}, To: sipmsg.NameAddr{URI: u},
		CallID: sipmsg.NewCallID("ph"), CSeq: 1,
		Via:     sipmsg.Via{Transport: "UDP", Host: "10.0.0.3", Port: 5073},
		Contact: &sipmsg.NameAddr{URI: sipmsg.URI{User: userdb.UserName(2), Host: "10.0.0.3", Port: 5073}},
	})
	v.engine.Handle(s, reg, "o")
	resp := s.originMsgs()[0].msg
	if resp.StatusCode != sipmsg.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	if _, ok := resp.Get("WWW-Authenticate"); !ok {
		t.Error("401 lacks WWW-Authenticate")
	}
	// Authorized retry succeeds.
	v.engine.Handle(s, authorizedRequest(reg, userdb.UserName(2)), "o")
	origins := s.originMsgs()
	if got := origins[len(origins)-1].msg.StatusCode; got != sipmsg.StatusOK {
		t.Errorf("authorized register: %d", got)
	}
}

func TestAckNeverChallenged(t *testing.T) {
	v := authEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	ack := invite(0, 1)
	ack.Method = sipmsg.ACK
	ack.Set("CSeq", "1 ACK")
	v.engine.Handle(s, ack, "o")
	for _, sm := range s.originMsgs() {
		if sm.msg.StatusCode == 407 || sm.msg.StatusCode == 401 {
			t.Fatal("ACK was challenged")
		}
	}
	// Forwarded without credentials.
	if len(s.addrMsgs()) != 1 {
		t.Error("ACK not forwarded")
	}
}

func TestChallengeCounterIncrements(t *testing.T) {
	v := authEnv(t)
	v.registerUser(1, "10.0.0.2", 5072)
	s := &fakeSender{}
	v.engine.Handle(s, invite(0, 1), "o")
	v.engine.Handle(s, invite(0, 1), "o")
	if got := v.prof.Counter("proxy.auth_challenges").Value(); got != 2 {
		t.Errorf("challenges = %d", got)
	}
}
