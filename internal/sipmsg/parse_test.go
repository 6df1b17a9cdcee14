package sipmsg

import (
	"bytes"
	"strings"
	"testing"
)

const sampleInvite = "INVITE sip:bob@biloxi.example.com SIP/2.0\r\n" +
	"Via: SIP/2.0/UDP pc33.atlanta.example.com:5066;branch=z9hG4bK776asdhds\r\n" +
	"Max-Forwards: 70\r\n" +
	"To: \"Bob\" <sip:bob@biloxi.example.com>\r\n" +
	"From: \"Alice\" <sip:alice@atlanta.example.com>;tag=1928301774\r\n" +
	"Call-ID: a84b4c76e66710@pc33.atlanta.example.com\r\n" +
	"CSeq: 314159 INVITE\r\n" +
	"Contact: <sip:alice@pc33.atlanta.example.com>\r\n" +
	"Content-Type: application/sdp\r\n" +
	"Content-Length: 4\r\n" +
	"\r\n" +
	"v=0\r\n"

func TestParseInvite(t *testing.T) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !m.IsRequest {
		t.Fatal("expected request")
	}
	if m.Method != INVITE {
		t.Errorf("Method = %q, want INVITE", m.Method)
	}
	if got := m.RequestURI.String(); got != "sip:bob@biloxi.example.com" {
		t.Errorf("RequestURI = %q", got)
	}
	if got := m.CallID(); got != "a84b4c76e66710@pc33.atlanta.example.com" {
		t.Errorf("CallID = %q", got)
	}
	seq, method, err := m.CSeq()
	if err != nil || seq != 314159 || method != INVITE {
		t.Errorf("CSeq = %d %s (%v)", seq, method, err)
	}
	if string(m.Body) != "v=0\r" {
		t.Errorf("Body = %q, want %q (Content-Length 4)", m.Body, "v=0\r")
	}
	via, err := m.TopVia()
	if err != nil {
		t.Fatalf("TopVia: %v", err)
	}
	if via.Transport != "UDP" || via.Host != "pc33.atlanta.example.com" || via.Port != 5066 {
		t.Errorf("Via = %+v", via)
	}
	if via.Branch() != "z9hG4bK776asdhds" {
		t.Errorf("Branch = %q", via.Branch())
	}
	if m.FromTag() != "1928301774" {
		t.Errorf("FromTag = %q", m.FromTag())
	}
	if m.ToTag() != "" {
		t.Errorf("ToTag = %q, want empty", m.ToTag())
	}
}

func TestParseResponse(t *testing.T) {
	raw := "SIP/2.0 180 Ringing\r\n" +
		"Via: SIP/2.0/TCP proxy.example.com;branch=z9hG4bKabc\r\n" +
		"Via: SIP/2.0/TCP caller.example.com:5071;branch=z9hG4bKdef\r\n" +
		"From: <sip:a@x.com>;tag=1\r\n" +
		"To: <sip:b@y.com>;tag=2\r\n" +
		"Call-ID: z\r\n" +
		"CSeq: 1 INVITE\r\n" +
		"Content-Length: 0\r\n\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.IsRequest {
		t.Fatal("expected response")
	}
	if m.StatusCode != 180 || m.Reason != "Ringing" {
		t.Errorf("status = %d %q", m.StatusCode, m.Reason)
	}
	vias := m.GetAll("Via")
	if len(vias) != 2 {
		t.Fatalf("got %d Vias, want 2", len(vias))
	}
	if m.ToTag() != "2" {
		t.Errorf("ToTag = %q", m.ToTag())
	}
}

func TestParseCombinedViaLine(t *testing.T) {
	raw := "SIP/2.0 200 OK\r\n" +
		"Via: SIP/2.0/UDP a.com;branch=z9hG4bK1, SIP/2.0/UDP b.com;branch=z9hG4bK2\r\n" +
		"From: <sip:a@x.com>;tag=1\r\nTo: <sip:b@y.com>\r\nCall-ID: c\r\nCSeq: 2 BYE\r\n\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	vias := m.GetAll("Via")
	if len(vias) != 2 {
		t.Fatalf("combined Via not split: %q", vias)
	}
	if !strings.Contains(vias[1], "b.com") {
		t.Errorf("second via = %q", vias[1])
	}
}

func TestParseCompactForms(t *testing.T) {
	raw := "BYE sip:b@y.com SIP/2.0\r\n" +
		"v: SIP/2.0/UDP a.com;branch=z9hG4bK9\r\n" +
		"f: <sip:a@x.com>;tag=1\r\n" +
		"t: <sip:b@y.com>;tag=2\r\n" +
		"i: abc\r\n" +
		"CSeq: 2 BYE\r\n" +
		"l: 0\r\n\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.CallID() != "abc" {
		t.Errorf("compact Call-ID not recognized: %q", m.CallID())
	}
	if _, ok := m.Get("Via"); !ok {
		t.Error("compact Via not recognized")
	}
	if _, ok := m.Get("from"); !ok {
		t.Error("case-insensitive Get failed")
	}
}

func TestParseFoldedHeader(t *testing.T) {
	raw := "OPTIONS sip:b@y.com SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP a.com\r\n" +
		" ;branch=z9hG4bKfold\r\n" +
		"From: <sip:a@x.com>;tag=1\r\nTo: <sip:b@y.com>\r\nCall-ID: c\r\nCSeq: 9 OPTIONS\r\n\r\n"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	via, err := m.TopVia()
	if err != nil {
		t.Fatalf("TopVia: %v", err)
	}
	if via.Branch() != "z9hG4bKfold" {
		t.Errorf("folded Via branch = %q", via.Branch())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"empty", ""},
		{"no terminator", "INVITE sip:a@b SIP/2.0\r\nVia: x\r\n"},
		{"bad method", "GET sip:a@b SIP/2.0\r\n\r\n"},
		{"bad version", "INVITE sip:a@b SIP/3.0\r\n\r\n"},
		{"bad request line", "INVITE SIP/2.0\r\n\r\n"},
		{"bad status", "SIP/2.0 abc OK\r\n\r\n"},
		{"status out of range", "SIP/2.0 99 Low\r\n\r\n"},
		{"header no colon", "INVITE sip:a@b SIP/2.0\r\nBogusHeader\r\n\r\n"},
		{"negative content length", "INVITE sip:a@b SIP/2.0\r\nContent-Length: -5\r\n\r\n"},
		{"short body", "INVITE sip:a@b SIP/2.0\r\nContent-Length: 10\r\n\r\nhi"},
		{"continuation first", "INVITE sip:a@b SIP/2.0\r\n x: y\r\n\r\n"},
		{"bad uri", "INVITE http://x SIP/2.0\r\n\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.raw)); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.raw)
			}
		})
	}
}

func TestParseIgnoresTrailingDatagramBytes(t *testing.T) {
	raw := "SIP/2.0 200 OK\r\nVia: SIP/2.0/UDP a.com;branch=z9hG4bK3\r\nFrom: <sip:a@x>;tag=1\r\nTo: <sip:b@y>\r\nCall-ID: c\r\nCSeq: 1 INVITE\r\nContent-Length: 2\r\n\r\nhiEXTRA"
	m, err := Parse([]byte(raw))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if string(m.Body) != "hi" {
		t.Errorf("Body = %q", m.Body)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := m.Serialize()
	m2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	if m2.Method != m.Method || m2.CallID() != m.CallID() || !bytes.Equal(m2.Body, m.Body) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", m, m2)
	}
	if len(m2.Headers) != len(m.Headers) {
		t.Errorf("header count %d != %d", len(m2.Headers), len(m.Headers))
	}
}

// TestParseBuiltRoundTrip: a message kept as its wire text comes back as a
// built message — not pooled, Release a no-op — that renders to the same
// bytes, body included; malformed text is refused as Parse refuses it.
func TestParseBuiltRoundTrip(t *testing.T) {
	m, err := Parse([]byte(sampleInvite))
	if err != nil {
		t.Fatal(err)
	}
	wire := string(m.AppendTo(nil))
	m.Release()
	b, err := ParseBuilt(wire)
	if err != nil {
		t.Fatalf("ParseBuilt: %v", err)
	}
	if b.Pooled() {
		t.Error("ParseBuilt handed out a pooled message")
	}
	b.Release() // no-op on a built message
	if got := string(b.AppendTo(nil)); got != wire {
		t.Errorf("renders\n%s\nwant\n%s", got, wire)
	}
	if b.Method != INVITE || len(b.Body) == 0 {
		t.Errorf("method %q, %d body bytes", b.Method, len(b.Body))
	}
	for _, bad := range []string{"", "INVITE sip:x SIP/2.0\r\n", "SIP/2.0 200 OK\r\nContent-Length: 9\r\n\r\nshort"} {
		if _, err := ParseBuilt(bad); err == nil {
			t.Errorf("ParseBuilt(%q) accepted", bad)
		}
	}
}

func TestSerializeComputesContentLength(t *testing.T) {
	m := &Message{IsRequest: true, Method: OPTIONS, RequestURI: URI{Host: "x.com"}}
	m.Add("Via", "SIP/2.0/UDP a.com;branch=z9hG4bK5")
	m.Add("From", "<sip:a@x>;tag=1")
	m.Add("To", "<sip:b@y>")
	m.Add("Call-ID", "c")
	m.Add("CSeq", "7 OPTIONS")
	m.Body = []byte("hello")
	out := string(m.Serialize())
	if !strings.Contains(out, "Content-Length: 5\r\n") {
		t.Errorf("missing computed Content-Length:\n%s", out)
	}
}

func TestHeaderManipulation(t *testing.T) {
	m := &Message{}
	m.Add("Via", "v1")
	m.Add("Via", "v2")
	m.Prepend("Via", "v0")
	if got := m.GetAll("Via"); len(got) != 3 || got[0] != "v0" {
		t.Fatalf("GetAll after Prepend = %v", got)
	}
	if !m.RemoveFirst("Via") {
		t.Fatal("RemoveFirst failed")
	}
	if got, _ := m.Get("Via"); got != "v1" {
		t.Errorf("after RemoveFirst, top = %q", got)
	}
	if n := m.Del("Via"); n != 2 {
		t.Errorf("Del removed %d, want 2", n)
	}
	m.Set("X-Test", "1")
	m.Set("X-Test", "2")
	if got := m.GetAll("X-Test"); len(got) != 1 || got[0] != "2" {
		t.Errorf("Set should replace: %v", got)
	}
}

func TestTransactionKey(t *testing.T) {
	m, _ := Parse([]byte(sampleInvite))
	key, err := m.TransactionKey()
	if err != nil {
		t.Fatalf("TransactionKey: %v", err)
	}
	if key != "z9hG4bK776asdhds|INVITE" {
		t.Errorf("key = %q", key)
	}
	// ACK with the same branch maps to the INVITE transaction.
	ack := m.Clone()
	ack.Method = ACK
	ack.Set("CSeq", "314159 ACK")
	k2, err := ack.TransactionKey()
	if err != nil {
		t.Fatalf("ack key: %v", err)
	}
	if k2 != key {
		t.Errorf("ACK key %q != INVITE key %q", k2, key)
	}
}

func TestClone(t *testing.T) {
	m, _ := Parse([]byte(sampleInvite))
	c := m.Clone()
	c.Set("Call-ID", "different")
	c.Body[0] = 'X'
	if m.CallID() == "different" {
		t.Error("Clone shares headers")
	}
	if m.Body[0] == 'X' {
		t.Error("Clone shares body")
	}
}

// TestCloneVariants holds the two sized copies a proxy makes to what Clone
// plus the header edit they replace would give.
func TestCloneVariants(t *testing.T) {
	m, _ := Parse([]byte("SIP/2.0 200 OK\r\nFrom: <sip:a@x>;tag=1\r\nVia: SIP/2.0/UDP p;branch=z9hG4bKp\r\n" +
		"Via: SIP/2.0/UDP c;branch=z9hG4bKc\r\nTo: <sip:b@y>;tag=2\r\nCall-ID: k\r\nCSeq: 1 INVITE\r\n\r\n"))
	defer m.Release()
	want := m.Clone()
	want.RemoveFirst("Via")
	got := m.CloneWithoutTopVia()
	if got.String() != want.String() {
		t.Errorf("CloneWithoutTopVia:\n%s\nwant:\n%s", got, want)
	}
	if len(got.Headers) != cap(got.Headers) {
		t.Errorf("CloneWithoutTopVia allocated %d header slots for %d headers", cap(got.Headers), len(got.Headers))
	}
	if (&Message{StatusCode: 200}).CloneWithoutTopVia() != nil {
		t.Error("CloneWithoutTopVia invented a copy of a message with no Via")
	}

	room := m.CloneWithHeadroom(2)
	if room.String() != m.String() {
		t.Error("CloneWithHeadroom changed the message")
	}
	before := &room.Headers[:1][0]
	room.Prepend("Via", "SIP/2.0/UDP q;branch=z9hG4bKq")
	room.Prepend("Record-Route", "<sip:q;lr>")
	if &room.Headers[:1][0] != before {
		t.Error("two Prepends on a copy with headroom 2 reallocated its headers")
	}
}

func TestMaxForwards(t *testing.T) {
	m := &Message{}
	if got := m.MaxForwards(70); got != 70 {
		t.Errorf("default = %d", got)
	}
	m.Set("Max-Forwards", "3")
	if got := m.MaxForwards(70); got != 3 {
		t.Errorf("got %d", got)
	}
	m.Set("Max-Forwards", "bogus")
	if got := m.MaxForwards(70); got != 70 {
		t.Errorf("garbled should default, got %d", got)
	}
}

func TestTooManyHeadersRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString("OPTIONS sip:a@b SIP/2.0\r\n")
	for i := 0; i < MaxHeaderCount+2; i++ {
		b.WriteString("X-Pad: y\r\n")
	}
	b.WriteString("\r\n")
	if _, err := Parse([]byte(b.String())); err == nil {
		t.Error("oversized header count accepted")
	}
}

func TestOversizeContentLengthRejected(t *testing.T) {
	raw := "INVITE sip:a@b SIP/2.0\r\nContent-Length: 9999999\r\n\r\n"
	if _, err := Parse([]byte(raw)); err == nil {
		t.Error("oversized Content-Length accepted")
	}
}
