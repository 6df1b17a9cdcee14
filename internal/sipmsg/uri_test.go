package sipmsg

import "testing"

func TestParseURI(t *testing.T) {
	cases := []struct {
		in      string
		user    string
		host    string
		port    int
		params  map[string]string
		wantErr bool
	}{
		{in: "sip:alice@atlanta.com", user: "alice", host: "atlanta.com"},
		{in: "sip:alice@atlanta.com:5070", user: "alice", host: "atlanta.com", port: 5070},
		{in: "sip:atlanta.com", host: "atlanta.com"},
		{in: "sip:alice@atlanta.com;transport=tcp", user: "alice", host: "atlanta.com", params: map[string]string{"transport": "tcp"}},
		{in: "sip:alice@atlanta.com:5080;transport=tcp;lr", user: "alice", host: "atlanta.com", port: 5080, params: map[string]string{"transport": "tcp", "lr": ""}},
		{in: "sip:[::1]:5090", host: "[::1]", port: 5090},
		{in: "sip:[::1]", host: "[::1]"},
		{in: "http://x.com", wantErr: true},
		{in: "sip:", wantErr: true},
		{in: "sip:a@b:notaport", wantErr: true},
		{in: "sip:a@b:70000", wantErr: true},
		{in: "sip:[::1", wantErr: true},
		{in: "sip:[::1]x:5060", wantErr: true},
	}
	for _, tc := range cases {
		u, err := ParseURI(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseURI(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseURI(%q): %v", tc.in, err)
			continue
		}
		if u.User != tc.user || u.Host != tc.host || u.Port != tc.port {
			t.Errorf("ParseURI(%q) = %+v", tc.in, u)
		}
		for k, v := range tc.params {
			if u.Params[k] != v {
				t.Errorf("ParseURI(%q) param %q = %q, want %q", tc.in, k, u.Params[k], v)
			}
		}
	}
}

func TestURIRoundTrip(t *testing.T) {
	for _, s := range []string{
		"sip:alice@atlanta.com",
		"sip:alice@atlanta.com:5070",
		"sip:atlanta.com;lr;transport=tcp",
		"sip:[::1]:5090",
	} {
		u, err := ParseURI(s)
		if err != nil {
			t.Fatalf("ParseURI(%q): %v", s, err)
		}
		u2, err := ParseURI(u.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", u.String(), err)
		}
		if u2.String() != u.String() {
			t.Errorf("round trip %q -> %q -> %q", s, u.String(), u2.String())
		}
	}
}

func TestURIHelpers(t *testing.T) {
	u, _ := ParseURI("sip:Alice@Atlanta.COM")
	if u.AOR() != "Alice@atlanta.com" {
		t.Errorf("AOR = %q", u.AOR())
	}
	if u.HostPort() != "Atlanta.COM:5060" {
		t.Errorf("HostPort = %q", u.HostPort())
	}
	u2, _ := ParseURI("sip:[::1]")
	if u2.HostPort() != "[::1]:5060" {
		t.Errorf("IPv6 HostPort = %q", u2.HostPort())
	}
}

func TestParseNameAddr(t *testing.T) {
	na, err := ParseNameAddr(`"Alice Smith" <sip:alice@atlanta.com>;tag=88sja8x`)
	if err != nil {
		t.Fatalf("ParseNameAddr: %v", err)
	}
	if na.Display != "Alice Smith" {
		t.Errorf("Display = %q", na.Display)
	}
	if na.URI.User != "alice" {
		t.Errorf("URI = %+v", na.URI)
	}
	if na.Params["tag"] != "88sja8x" {
		t.Errorf("tag = %q", na.Params["tag"])
	}

	// addr-spec form: ;tag belongs to the header, not the URI.
	na2, err := ParseNameAddr("sip:bob@biloxi.com;tag=x")
	if err != nil {
		t.Fatalf("addr-spec: %v", err)
	}
	if na2.Params["tag"] != "x" {
		t.Errorf("addr-spec tag = %q", na2.Params["tag"])
	}
	if len(na2.URI.Params) != 0 {
		t.Errorf("URI stole header params: %+v", na2.URI.Params)
	}

	// URI params stay inside brackets.
	na3, err := ParseNameAddr("<sip:bob@biloxi.com;transport=tcp>;tag=y")
	if err != nil {
		t.Fatalf("bracketed: %v", err)
	}
	if na3.URI.Params["transport"] != "tcp" || na3.Params["tag"] != "y" {
		t.Errorf("param split wrong: uri=%+v hdr=%+v", na3.URI.Params, na3.Params)
	}

	if _, err := ParseNameAddr("<sip:a@b"); err == nil {
		t.Error("unbalanced brackets accepted")
	}
}

func TestParseVia(t *testing.T) {
	v, err := ParseVia("SIP/2.0/UDP pc33.atlanta.com:5066;branch=z9hG4bK776;received=10.0.0.1")
	if err != nil {
		t.Fatalf("ParseVia: %v", err)
	}
	if v.Transport != "UDP" || v.Host != "pc33.atlanta.com" || v.Port != 5066 {
		t.Errorf("via = %+v", v)
	}
	if v.Branch() != "z9hG4bK776" || v.Params["received"] != "10.0.0.1" {
		t.Errorf("params = %+v", v.Params)
	}
	if v.SentBy() != "pc33.atlanta.com:5066" {
		t.Errorf("SentBy = %q", v.SentBy())
	}

	v2, err := ParseVia("SIP/2.0/tcp example.com")
	if err != nil {
		t.Fatalf("lowercase transport: %v", err)
	}
	if v2.Transport != "TCP" {
		t.Errorf("transport = %q", v2.Transport)
	}
	if v2.SentBy() != "example.com:5060" {
		t.Errorf("default port SentBy = %q", v2.SentBy())
	}

	for _, bad := range []string{"", "SIP/2.0/UDP", "HTTP/1.1/TCP x.com", "SIP/2.0/UDP host:bad"} {
		if _, err := ParseVia(bad); err == nil {
			t.Errorf("ParseVia(%q) succeeded", bad)
		}
	}
}

func TestViaRoundTrip(t *testing.T) {
	in := "SIP/2.0/TCP proxy.example.com:5061;branch=z9hG4bKxyz;rport=1234"
	v, err := ParseVia(in)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseVia(v.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if v2.String() != v.String() {
		t.Errorf("round trip %q -> %q", v.String(), v2.String())
	}
}

// TestNewResponseAppendsToTag: a response's To is the request's To value
// as received plus ";tag=" when it had no tag (RFC 3261 §8.2.6.2). A tag
// in any case, a 100, or a To that does not parse leaves it as it is.
func TestNewResponseAppendsToTag(t *testing.T) {
	for _, tc := range []struct{ to, want string }{
		{"<sip:bob@b.example>", "<sip:bob@b.example>;tag=t9"},
		{`"Bob B" <sip:bob@b.example;transport=tcp>;x=1`, `"Bob B" <sip:bob@b.example;transport=tcp>;x=1;tag=t9`},
		{"sip:bob@b.example", "sip:bob@b.example;tag=t9"},
		{"<sip:bob@b.example>;tag=", "<sip:bob@b.example>;tag=;tag=t9"},
		{"<sip:bob@b.example>;tag=abc", "<sip:bob@b.example>;tag=abc"},
		{"<sip:bob@b.example> ; TAG=abc", "<sip:bob@b.example> ; TAG=abc"},
		{"sip:bob@b.example;Tag=abc", "sip:bob@b.example;Tag=abc"},
		{"<sip:bob@b.example", "<sip:bob@b.example"},
		{"garbage", "garbage"},
	} {
		req := &Message{IsRequest: true, Method: INVITE}
		req.Add("Via", "SIP/2.0/UDP h;branch=z9hG4bKx")
		req.Add("To", tc.to)
		if got, _ := NewResponse(req, StatusOK, "t9").Get("To"); got != tc.want {
			t.Errorf("To %q: response To = %q, want %q", tc.to, got, tc.want)
		}
		if got, _ := NewResponse(req, StatusTrying, "t9").Get("To"); got != tc.to {
			t.Errorf("To %q: 100 To = %q, want it unchanged", tc.to, got)
		}
		if na, err := ParseNameAddr(tc.to); err == nil {
			resp, _ := NewResponse(req, StatusOK, "t9").Get("To")
			if rt, err := ParseNameAddr(resp); err != nil || rt.Params["tag"] == "" || rt.URI.String() != na.URI.String() {
				t.Errorf("To %q: response To %q parses to %+v, %v", tc.to, resp, rt, err)
			}
		}
	}
}

// TestNameAddrAppendTo: String is AppendTo into a fresh buffer, header
// parameters sorted after the bracketed URI.
func TestNameAddrAppendTo(t *testing.T) {
	na, err := ParseNameAddr(`"A" <sip:a@h:5070;lr>;tag=1;expires=60`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `"A" <sip:a@h:5070;lr>;expires=60;tag=1`
	if got := string(na.AppendTo([]byte("x"))); got != "x"+want {
		t.Errorf("AppendTo = %q", got)
	}
	if got := na.String(); got != want {
		t.Errorf("String = %q", got)
	}
}
